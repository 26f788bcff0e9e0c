//! A minimal `--key value` argument parser (no external dependencies).
//!
//! All parse failures surface as [`CliError::Usage`], so `main` can exit
//! with the usage status without inspecting message text.

use crate::error::CliError;
use std::collections::BTreeMap;

/// Parsed command-line arguments: one subcommand plus `--key value` flags.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The subcommand (first non-flag argument).
    pub command: Option<String>,
    flags: BTreeMap<String, String>,
    /// Bare `--flag` switches without values.
    switches: Vec<String>,
}

impl Args {
    /// Parses an argument iterator (excluding the program name).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, CliError> {
        let mut out = Args::default();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            if let Some(name) = arg.strip_prefix("--") {
                if name.is_empty() {
                    return Err(CliError::Usage("empty flag name".into()));
                }
                // `--key=value` or `--key value` or bare switch.
                if let Some((k, v)) = name.split_once('=') {
                    out.flags.insert(k.to_owned(), v.to_owned());
                } else if iter
                    .peek()
                    .map(|next| !next.starts_with("--"))
                    .unwrap_or(false)
                {
                    let value = iter.next().expect("peeked");
                    out.flags.insert(name.to_owned(), value);
                } else {
                    out.switches.push(name.to_owned());
                }
            } else if out.command.is_none() {
                out.command = Some(arg);
            } else {
                return Err(CliError::Usage(format!(
                    "unexpected positional argument '{arg}'"
                )));
            }
        }
        Ok(out)
    }

    /// Parses the process arguments.
    pub fn from_env() -> Result<Self, CliError> {
        Self::parse(std::env::args().skip(1))
    }

    /// String flag value.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// String flag with a default.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// Required string flag.
    pub fn require(&self, key: &str) -> Result<&str, CliError> {
        self.get(key)
            .ok_or_else(|| CliError::Usage(format!("missing required flag --{key}")))
    }

    /// Parsed numeric flag with a default.
    pub fn get_parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("flag --{key} has invalid value '{v}'"))),
        }
    }

    /// Whether a bare `--switch` was passed.
    pub fn has_switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// Refuses every `--key value` flag not named in `flags` and every
    /// bare switch not named in `switches` (both space-separated), naming
    /// the first one found.
    pub fn check_known(&self, flags: &str, switches: &str) -> Result<(), CliError> {
        let named = |list: &str, name: &str| list.split_whitespace().any(|n| n == name);
        let unknown = |name: &str, other: &str, why: &str| {
            CliError::Usage(if named(other, name) {
                format!("flag --{name} {why}")
            } else {
                format!("unknown flag --{name}")
            })
        };
        if let Some(key) = self.flags.keys().find(|k| !named(flags, k)) {
            return Err(unknown(key, switches, "takes no value"));
        }
        if let Some(name) = self.switches.iter().find(|s| !named(switches, s)) {
            return Err(unknown(name, flags, "needs a value"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Args {
        Args::parse(args.iter().map(|s| (*s).to_owned())).unwrap()
    }

    #[test]
    fn parses_command_flags_and_switches() {
        let a = parse(&["train", "--fleet", "f.json", "--trees=50", "--verbose"]);
        assert_eq!(a.command.as_deref(), Some("train"));
        assert_eq!(a.get("fleet"), Some("f.json"));
        assert_eq!(a.get_parse_or("trees", 0usize).unwrap(), 50);
        assert!(a.has_switch("verbose"));
        assert!(!a.has_switch("quiet"));
    }

    #[test]
    fn defaults_and_requirements() {
        let a = parse(&["generate"]);
        assert_eq!(a.get_or("out", "fleet.json"), "fleet.json");
        assert!(a.require("out").is_err());
        assert_eq!(a.get_parse_or("servers", 500usize).unwrap(), 500);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(Args::parse(vec!["cmd".into(), "stray".into()]).is_err());
        assert!(Args::parse(vec!["--".into()]).is_err());
        let a = parse(&["x", "--n", "abc"]);
        assert!(a.get_parse_or("n", 0usize).is_err());
    }

    #[test]
    fn undeclared_flags_are_usage_errors_that_name_the_flag() {
        let a = parse(&["ticket", "--symptoms", "slow", "--json"]);
        assert!(a.check_known("symptoms", "json").is_ok());
        for (flags, switches, named) in [
            ("", "symptoms json", "--symptoms takes no value"),
            ("", "json", "unknown flag --symptoms"),
            ("symptoms json", "", "--json needs a value"),
            ("symptoms", "", "unknown flag --json"),
        ] {
            let err = a.check_known(flags, switches).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)));
            assert!(err.to_string().contains(named), "{err}");
        }
    }

    #[test]
    fn flag_followed_by_flag_is_a_switch() {
        let a = parse(&["run", "--fast", "--out", "x.json"]);
        assert!(a.has_switch("fast"));
        assert_eq!(a.get("out"), Some("x.json"));
    }
}
