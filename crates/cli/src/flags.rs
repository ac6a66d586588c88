//! Tiny flag parser shared by the subcommands.

use std::collections::HashMap;

/// Parsed `--key value` flags, valueless `--switch`es, and positional
/// arguments.
#[derive(Debug, Default)]
pub struct Flags {
    values: HashMap<String, String>,
    switches: Vec<String>,
    pub positional: Vec<String>,
}

impl Flags {
    /// Parses `args` for a subcommand taking the `--key value` flags named
    /// in `accepted` (names without the leading `--`). Any other `--key` is
    /// an error naming it.
    pub fn parse(args: &[String], accepted: &[&str]) -> Result<Flags, String> {
        Flags::parse_with_switches(args, accepted, &[])
    }

    /// [`Flags::parse`] plus the valueless flags named in `switches`.
    pub fn parse_with_switches(
        args: &[String],
        accepted: &[&str],
        switches: &[&str],
    ) -> Result<Flags, String> {
        let mut out = Flags::default();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                out.positional.push(a.clone());
                continue;
            };
            if switches.contains(&key) {
                if out.switches.iter().any(|s| s == key) {
                    return Err(format!("flag --{key} given twice"));
                }
                out.switches.push(key.to_string());
                continue;
            }
            if !accepted.contains(&key) {
                let known: Vec<String> = accepted
                    .iter()
                    .chain(switches)
                    .map(|k| format!("--{k}"))
                    .collect();
                return Err(if known.is_empty() {
                    format!("unknown flag --{key} (this command takes no flags)")
                } else {
                    format!(
                        "unknown flag --{key} (expected one of {})",
                        known.join(", ")
                    )
                });
            }
            let v = it
                .next()
                .ok_or_else(|| format!("flag --{key} needs a value"))?;
            if out.values.insert(key.to_string(), v.clone()).is_some() {
                return Err(format!("flag --{key} given twice"));
            }
        }
        Ok(out)
    }

    /// Raw string value.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(|s| s.as_str())
    }

    /// Whether the valueless flag `--key` was given.
    pub fn switch(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }

    /// Required string value.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required --{key}"))
    }

    /// Optional parsed value.
    pub fn get_parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse::<T>()
                .map(Some)
                .map_err(|e| format!("bad value for --{key}: {e}")),
        }
    }

    /// Parsed value with default.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        Ok(self.get_parsed(key)?.unwrap_or(default))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ACCEPTED: &[&str] = &["n", "seed", "out"];

    fn parse(s: &[&str]) -> Result<Flags, String> {
        Flags::parse(
            &s.iter().map(|x| x.to_string()).collect::<Vec<_>>(),
            ACCEPTED,
        )
    }

    #[test]
    fn flags_and_positionals() {
        let f = parse(&["--n", "100", "input.txt", "--seed", "7"]).unwrap();
        assert_eq!(f.get("n"), Some("100"));
        assert_eq!(f.get_or::<u64>("seed", 0).unwrap(), 7);
        assert_eq!(f.positional, vec!["input.txt"]);
        assert_eq!(f.get_or::<usize>("missing", 5).unwrap(), 5);
    }

    #[test]
    fn missing_value_is_error() {
        assert!(parse(&["--n"]).is_err());
    }

    #[test]
    fn duplicate_flag_is_error() {
        assert!(parse(&["--n", "1", "--n", "2"]).is_err());
    }

    #[test]
    fn unknown_flag_is_named_in_the_error() {
        let err = parse(&["--n", "1", "--sead", "7"]).unwrap_err();
        assert!(err.contains("--sead"), "got: {err}");
        assert!(err.contains("--seed"), "lists the accepted flags: {err}");
        // An unknown trailing flag is unknown, not merely missing a value.
        let err = parse(&["--nn"]).unwrap_err();
        assert!(err.contains("unknown flag --nn"), "got: {err}");
        let args = vec!["--n".to_string(), "1".to_string()];
        let err = Flags::parse(&args, &[]).unwrap_err();
        assert!(
            err.contains("--n") && err.contains("no flags"),
            "got: {err}"
        );
    }

    #[test]
    fn switches_take_no_value() {
        let args: Vec<String> = ["--dry", "--n", "3", "pos"]
            .iter()
            .map(|x| x.to_string())
            .collect();
        let f = Flags::parse_with_switches(&args, ACCEPTED, &["dry", "loud"]).unwrap();
        assert!(f.switch("dry"));
        assert!(!f.switch("loud"));
        assert_eq!(f.get("n"), Some("3"));
        assert_eq!(f.positional, vec!["pos"]);
    }

    #[test]
    fn bad_parse_reports_flag() {
        let f = parse(&["--n", "xyz"]).unwrap();
        let err = f.get_parsed::<usize>("n").unwrap_err();
        assert!(err.contains("--n"));
    }

    #[test]
    fn require_reports_missing() {
        let f = parse(&[]).unwrap();
        assert!(f.require("out").unwrap_err().contains("--out"));
    }
}
