//! Minimal argument parsing: a subcommand followed by `--key value` pairs
//! and `--flag` booleans, checked against what the subcommand accepts.

/// Parsed command line.
#[derive(Debug, Default)]
pub struct Args {
    command: Option<String>,
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
    positionals: Vec<String>,
}

impl Args {
    /// Parses an argument iterator (without the program name).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Args {
        let mut out = Args::default();
        let mut iter = args.into_iter().peekable();
        if let Some(first) = iter.peek() {
            if !first.starts_with("--") {
                out.command = iter.next();
            }
        }
        while let Some(arg) = iter.next() {
            let Some(name) = arg.strip_prefix("--") else {
                out.positionals.push(arg);
                continue;
            };
            match iter.peek() {
                Some(next) if !next.starts_with("--") => {
                    let value = iter.next().expect("peeked");
                    out.pairs.push((name.to_string(), value));
                }
                _ => out.flags.push(name.to_string()),
            }
        }
        out
    }

    /// The subcommand, if any.
    pub fn command(&self) -> Option<&str> {
        self.command.as_deref()
    }

    /// A required `--name value`.
    pub fn value(&self, name: &str) -> Result<String, String> {
        self.opt_value(name)
            .map(str::to_string)
            .ok_or_else(|| format!("missing --{name} <value>"))
    }

    /// An optional `--name value`.
    pub fn opt_value(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether `--name` was given as a bare flag.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// Fails on anything the subcommand does not accept: an `--name` that
    /// is in neither `options` (which take a value) nor `flags`, an option
    /// without its value, a flag with one, or a stray word.
    pub fn check(&self, options: &[&str], flags: &[&str]) -> Result<(), String> {
        for (name, value) in &self.pairs {
            if flags.contains(&name.as_str()) {
                return Err(format!("--{name} takes no value (got {value})"));
            }
            if !options.contains(&name.as_str()) {
                return Err(format!("unknown option --{name}"));
            }
        }
        for name in &self.flags {
            if options.contains(&name.as_str()) {
                return Err(format!("--{name} needs a value"));
            }
            if !flags.contains(&name.as_str()) {
                return Err(format!("unknown option --{name}"));
            }
        }
        match self.positionals.first() {
            Some(word) => Err(format!("unexpected argument {word}")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Args {
        Args::parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn subcommand_and_pairs() {
        let a = parse("load --data x.nt --store ./db --threshold 0.25");
        assert_eq!(a.command(), Some("load"));
        assert_eq!(a.value("data").unwrap(), "x.nt");
        assert_eq!(a.opt_value("threshold"), Some("0.25"));
        assert!(a.value("missing").is_err());
    }

    #[test]
    fn flags_without_values() {
        let a = parse("query --store db --explain --no-extvp --query SELECT");
        assert!(a.flag("explain"));
        assert!(a.flag("no-extvp"));
        assert!(!a.flag("stdin"));
        assert_eq!(a.opt_value("query"), Some("SELECT"));
    }

    #[test]
    fn no_subcommand() {
        let a = parse("--help");
        assert_eq!(a.command(), None);
        assert!(a.flag("help"));
    }

    #[test]
    fn trailing_flag() {
        let a = parse("stats --store db --explain");
        assert_eq!(a.opt_value("store"), Some("db"));
        assert!(a.flag("explain"));
    }

    const OPTIONS: &[&str] = &["store", "query"];
    const FLAGS: &[&str] = &["explain"];

    #[test]
    fn check_accepts_declared_options_and_flags() {
        let a = parse("query --store db --explain --query SELECT");
        assert_eq!(a.check(OPTIONS, FLAGS), Ok(()));
        assert_eq!(parse("query").check(OPTIONS, FLAGS), Ok(()));
    }

    #[test]
    fn check_rejects_unknown_options() {
        let a = parse("query --store db --max-partitions 4 --query SELECT");
        assert_eq!(
            a.check(OPTIONS, FLAGS),
            Err("unknown option --max-partitions".to_string())
        );
        let a = parse("query --store db --verbose");
        assert_eq!(
            a.check(OPTIONS, FLAGS),
            Err("unknown option --verbose".to_string())
        );
    }

    #[test]
    fn check_rejects_stray_words() {
        let a = parse("query --store db --query SELECT bogus");
        assert_eq!(
            a.check(OPTIONS, FLAGS),
            Err("unexpected argument bogus".to_string())
        );
    }

    #[test]
    fn check_rejects_missing_and_unexpected_values() {
        let a = parse("query --explain --store");
        assert_eq!(
            a.check(OPTIONS, FLAGS),
            Err("--store needs a value".to_string())
        );
        let a = parse("query --explain yes");
        assert_eq!(
            a.check(OPTIONS, FLAGS),
            Err("--explain takes no value (got yes)".to_string())
        );
    }
}
