//! Minimal flag parser for the harness binaries (no external deps).
//!
//! Syntax: `--key value` or boolean `--flag`. Lists are comma-separated:
//! `--threads 1,2,4,8`. Each binary names the flags it reads; any other
//! argument (`--help` included) stops it before it runs anything, with
//! the accepted flags listed.

use std::collections::HashMap;

/// Parsed command-line flags.
pub struct Args {
    accepted: &'static [&'static str],
    flags: HashMap<String, String>,
}

impl Args {
    /// Parse `std::env::args()`, accepting only the flags in
    /// `accepted`. On any other argument prints the error and the
    /// accepted flags to stderr and exits with status 2.
    pub fn parse(accepted: &'static [&'static str]) -> Self {
        Self::parse_from(accepted, std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    }

    /// Parse from an explicit iterator (testable). `Err` names the first
    /// argument that is not one of the `accepted` flags, and lists them.
    pub fn parse_from(
        accepted: &'static [&'static str],
        iter: impl IntoIterator<Item = String>,
    ) -> Result<Self, String> {
        let mut flags = HashMap::new();
        let mut iter = iter.into_iter().peekable();
        while let Some(arg) = iter.next() {
            let Some(key) = arg.strip_prefix("--").filter(|k| accepted.contains(k)) else {
                let list: Vec<String> = accepted.iter().map(|k| format!("--{k}")).collect();
                return Err(format!(
                    "unexpected argument {arg:?}; accepted flags: {}",
                    list.join(" ")
                ));
            };
            let value = match iter.peek() {
                Some(v) if !v.starts_with("--") => iter.next().unwrap(),
                _ => String::from("true"),
            };
            flags.insert(key.to_string(), value);
        }
        Ok(Self { accepted, flags })
    }

    /// The value of `key`. Reading a flag the binary did not declare is
    /// a bug: the parser would have refused it on the command line.
    fn value(&self, key: &str) -> Option<&String> {
        assert!(
            self.accepted.contains(&key),
            "--{key} is read but not among the accepted flags"
        );
        self.flags.get(key)
    }

    /// String flag with default.
    pub fn get(&self, key: &str, default: &str) -> String {
        self.value(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// Parsed numeric flag with default.
    pub fn get_num<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.value(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// Optional flag: `None` when absent, `Some(value)` when present —
    /// the bare `--flag` form yields `Some("true")`. Lets a flag like
    /// `--metrics [path]` distinguish "off", "on with default path",
    /// and "on with explicit path".
    pub fn get_opt(&self, key: &str) -> Option<&str> {
        self.value(key).map(String::as_str)
    }

    /// Boolean flag (present or `--key true`).
    pub fn get_bool(&self, key: &str) -> bool {
        matches!(
            self.value(key).map(String::as_str),
            Some("true") | Some("1")
        )
    }

    /// Comma-separated list of numbers with default.
    pub fn get_list(&self, key: &str, default: &[usize]) -> Vec<usize> {
        match self.value(key) {
            None => default.to_vec(),
            Some(v) => v.split(',').filter_map(|s| s.trim().parse().ok()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: &[&str] = &["threads", "ops", "quick", "mix", "metrics", "absent"];

    fn args(s: &str) -> Args {
        Args::parse_from(FLAGS, s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn parses_key_values() {
        let a = args("--threads 1,2,4 --ops 1000 --quick --mix half");
        assert_eq!(a.get_list("threads", &[9]), vec![1, 2, 4]);
        assert_eq!(a.get_num("ops", 0u64), 1000);
        assert!(a.get_bool("quick"));
        assert_eq!(a.get("mix", "x"), "half");
    }

    #[test]
    fn defaults_apply() {
        let a = args("");
        assert_eq!(a.get("mix", "insert"), "insert");
        assert_eq!(a.get_num("ops", 77u64), 77);
        assert!(!a.get_bool("quick"));
        assert_eq!(a.get_list("threads", &[1, 2]), vec![1, 2]);
    }

    #[test]
    fn get_opt_distinguishes_bare_from_valued() {
        let a = args("--metrics --ops 10");
        assert_eq!(a.get_opt("metrics"), Some("true"));
        assert_eq!(a.get_opt("ops"), Some("10"));
        assert_eq!(a.get_opt("absent"), None);
        let b = args("--metrics results/run.json");
        assert_eq!(b.get_opt("metrics"), Some("results/run.json"));
    }

    #[test]
    fn malformed_numbers_fall_back() {
        let a = args("--ops banana");
        assert_eq!(a.get_num("ops", 5u64), 5);
    }

    #[test]
    fn unknown_flags_and_positionals_are_refused_with_the_accepted_list() {
        for bad in ["--help", "--ops 10 --thread 2", "--quick sweep extra"] {
            let err = Args::parse_from(FLAGS, bad.split_whitespace().map(String::from))
                .err()
                .unwrap_or_else(|| panic!("{bad:?} must be refused"));
            assert!(
                err.contains("--threads --ops --quick --mix --metrics --absent"),
                "{err}"
            );
        }
        let err = Args::parse_from(FLAGS, ["--help".to_string()])
            .err()
            .unwrap();
        assert!(err.contains("\"--help\""), "{err}");
    }

    #[test]
    #[should_panic(expected = "--stats is read but not among the accepted flags")]
    fn reading_an_undeclared_flag_panics() {
        args("--quick").get_bool("stats");
    }
}
