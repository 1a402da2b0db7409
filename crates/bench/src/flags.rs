//! One command-line parse per binary.
//!
//! A binary's (or a `modelctl` subcommand's) usage line *is* its flag
//! declaration: `[--quick]` declares a switch, `[--threads N]` a valued
//! flag (the next word is an upper-case placeholder), a bare upper-case
//! word such as `ADDR` one positional argument. [`Flags::parse`] checks
//! the whole command line against that line at once, so a typo such as
//! `--thread 4` is a usage error instead of a run under the default
//! configuration, and the usage text cannot drift from what is accepted.

/// The parsed command line of one binary.
#[derive(Debug)]
pub struct Flags {
    usage: &'static str,
    /// Every passed flag, with its value when it is a valued one.
    passed: Vec<(String, Option<String>)>,
    positionals: Vec<String>,
}

fn is_placeholder(word: &str) -> bool {
    word.starts_with(|c: char| c.is_ascii_uppercase())
}

/// The words of a usage line, brackets and `|` separators dropped.
fn words(usage: &str) -> impl Iterator<Item = &str> {
    usage
        .split_whitespace()
        .map(|w| w.trim_matches(|c| matches!(c, '[' | ']' | '|')))
        .filter(|w| !w.is_empty())
}

/// `Some(takes_value)` when `usage` declares `--name`.
fn declared(usage: &str, name: &str) -> Option<bool> {
    let mut words = words(usage).skip_while(|w| w.strip_prefix("--") != Some(name));
    words.next()?;
    Some(words.next().is_some_and(is_placeholder))
}

impl Flags {
    /// Parses `args` (the command line after the binary name — and, for
    /// `modelctl`, after the subcommand) against the flags `usage`
    /// declares (a valued flag is `--name VALUE` or `--name=VALUE`).
    /// Anything else — an undeclared flag, a valued flag without its
    /// value, a stray positional — prints the complaint and `usage` and
    /// exits with status 2.
    pub fn parse(args: impl IntoIterator<Item = String>, usage: &'static str) -> Flags {
        Self::try_parse(args, usage).unwrap_or_else(|complaint| usage_exit(&complaint, usage))
    }

    fn try_parse(
        args: impl IntoIterator<Item = String>,
        usage: &'static str,
    ) -> Result<Flags, String> {
        // Placeholders that are not some flag's value are positionals.
        let mut max_positionals = 0usize;
        let mut after_flag = false;
        for word in words(usage) {
            max_positionals += usize::from(is_placeholder(word) && !after_flag);
            after_flag = word.starts_with("--");
        }
        let mut flags = Flags {
            usage,
            passed: Vec::new(),
            positionals: Vec::new(),
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let Some(flag) = arg.strip_prefix("--") else {
                if flags.positionals.len() == max_positionals {
                    return Err(format!("unexpected argument {arg:?}"));
                }
                flags.positionals.push(arg);
                continue;
            };
            let (name, inline) = match flag.split_once('=') {
                Some((name, value)) => (name, Some(value.to_string())),
                None => (flag, None),
            };
            let value = match declared(usage, name) {
                Some(false) if inline.is_none() => None,
                Some(true) => Some(
                    inline
                        .or_else(|| args.next())
                        .ok_or_else(|| format!("--{name} needs a value"))?,
                ),
                _ => return Err(format!("unknown flag --{flag}")),
            };
            flags.passed.push((name.to_string(), value));
        }
        Ok(flags)
    }

    /// The first `--name` passed; asking about a flag the usage line
    /// does not declare is a bug in the binary.
    fn find(&self, name: &str) -> Option<&(String, Option<String>)> {
        assert!(
            declared(self.usage, name).is_some(),
            "--{name} is read but not declared"
        );
        self.passed.iter().find(|(flag, _)| flag == name)
    }

    /// `true` when the switch `--name` was passed.
    pub fn has(&self, name: &str) -> bool {
        self.find(name).is_some()
    }

    /// The value of `--name`, when passed (the first occurrence wins).
    pub fn string(&self, name: &str) -> Option<&str> {
        self.find(name)?.1.as_deref()
    }

    /// The value of `--name` as a positive integer, `default` when the
    /// flag is absent; anything but a positive integer is a usage error
    /// (exit 2), never a silent fall-back.
    pub fn positive(&self, name: &str, default: usize) -> usize {
        match self.string(name).map(str::parse) {
            None => default,
            Some(Ok(n)) if n >= 1 => n,
            Some(_) => usage_exit(&format!("--{name} needs a positive integer"), self.usage),
        }
    }

    /// The `i`-th bare argument, when passed.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(String::as_str)
    }
}

fn usage_exit(complaint: &str, usage: &str) -> ! {
    eprintln!("{complaint}");
    eprintln!("usage: {usage}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    const USAGE: &str =
        "tool verb ADDR [--quick] [--threads N] [--out DIR | --outs DIR1,DIR2,...] \
                         [--dry-run]";

    fn parse(args: &[&str]) -> Result<Flags, String> {
        Flags::try_parse(args.iter().map(|a| a.to_string()), USAGE)
    }

    #[test]
    fn the_usage_line_is_the_declaration() {
        for (name, takes_value) in [
            ("quick", Some(false)),
            ("threads", Some(true)),
            ("out", Some(true)),
            ("outs", Some(true)),
            ("dry-run", Some(false)),
            ("thread", None),
            ("verb", None),
        ] {
            assert_eq!(declared(USAGE, name), takes_value, "--{name}");
        }
    }

    #[test]
    fn declared_flags_parse_in_both_spellings() {
        let flags = parse(&["--threads", "4", "host:1", "--quick", "--out=dir"]).unwrap();
        assert!(flags.has("quick") && !flags.has("dry-run"));
        assert_eq!(flags.positive("threads", 1), 4);
        assert_eq!(flags.string("out"), Some("dir"));
        assert_eq!(flags.string("outs"), None);
        assert_eq!(flags.positional(0), Some("host:1"));
        let flags = parse(&[]).unwrap();
        assert!(!flags.has("quick"));
        assert_eq!(flags.positive("threads", 7), 7);
        assert_eq!(flags.positional(0), None);
    }

    #[test]
    fn anything_undeclared_is_an_error_naming_it() {
        for (args, named) in [
            (&["--thread", "4"][..], "--thread"),
            (&["--qiuck"], "--qiuck"),
            (&["--threads"], "--threads"),
            (&["--quick=yes"], "--quick"),
            (&["a:1", "8"], "\"8\""),
        ] {
            let complaint = parse(args).unwrap_err();
            assert!(complaint.contains(named), "{args:?}: {complaint}");
        }
    }

    #[test]
    #[should_panic(expected = "--epochs is read but not declared")]
    fn reading_an_undeclared_flag_is_a_bug() {
        parse(&[]).unwrap().positive("epochs", 1);
    }
}
