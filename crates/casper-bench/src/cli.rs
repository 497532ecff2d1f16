//! Minimal `--key=value` argument parsing for the benchmark binaries (no
//! external CLI dependency, per the offline-crate policy).

use std::collections::HashMap;

/// Parsed command-line arguments.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: HashMap<String, String>,
    /// Whether `--help` was requested.
    pub help: bool,
}

impl Args {
    /// Parse from the process arguments.
    pub fn parse() -> Self {
        Self::from_iter(std::env::args().skip(1))
    }

    /// Parse from an explicit iterator (tests).
    #[allow(clippy::should_implement_trait)] // not a FromIterator: parses, doesn't collect
    pub fn from_iter(args: impl IntoIterator<Item = String>) -> Self {
        let mut values = HashMap::new();
        let mut help = false;
        for a in args {
            if a == "--help" || a == "-h" {
                help = true;
                continue;
            }
            if let Some(rest) = a.strip_prefix("--") {
                if let Some((k, v)) = rest.split_once('=') {
                    values.insert(k.to_string(), v.to_string());
                } else {
                    values.insert(rest.to_string(), "true".to_string());
                }
            }
        }
        Self { values, help }
    }

    /// Raw string lookup.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// Integer with default.
    pub fn usize_or(&self, key: &str, default: usize) -> usize {
        self.get(key)
            .map(|v| {
                v.replace('_', "")
                    .parse()
                    .unwrap_or_else(|_| panic!("--{key} expects an integer, got {v}"))
            })
            .unwrap_or(default)
    }

    /// `u64` with default.
    pub fn u64_or(&self, key: &str, default: u64) -> u64 {
        self.usize_or(key, default as usize) as u64
    }

    /// Float with default.
    pub fn f64_or(&self, key: &str, default: f64) -> f64 {
        self.get(key)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{key} expects a number, got {v}"))
            })
            .unwrap_or(default)
    }

    /// Boolean flag.
    pub fn flag(&self, key: &str) -> bool {
        matches!(self.get(key), Some("true") | Some("1") | Some("yes"))
    }

    /// Print a standard usage block and exit if `--help` was passed.
    pub fn usage(&self, name: &str, description: &str, options: &[(&str, &str)]) {
        if !self.help {
            return;
        }
        println!("{name} — {description}\n");
        println!("options:");
        for (opt, desc) in options {
            println!("  --{opt:<24} {desc}");
        }
        std::process::exit(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::from_iter(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_key_value_pairs() {
        let a = args(&["--rows=1000", "--seed=42", "--verbose"]);
        assert_eq!(a.usize_or("rows", 0), 1000);
        assert_eq!(a.u64_or("seed", 0), 42);
        assert!(a.flag("verbose"));
        assert!(!a.flag("quiet"));
    }

    #[test]
    fn defaults_apply() {
        let a = args(&[]);
        assert_eq!(a.usize_or("rows", 77), 77);
        assert_eq!(a.f64_or("frac", 0.5), 0.5);
    }

    #[test]
    fn underscores_in_numbers() {
        let a = args(&["--rows=1_000_000"]);
        assert_eq!(a.usize_or("rows", 0), 1_000_000);
    }

    #[test]
    fn help_flag_detected() {
        assert!(args(&["--help"]).help);
        assert!(args(&["-h"]).help);
        assert!(!args(&["--rows=1"]).help);
    }
}
