//! The option reader every command line shares (no external parser
//! dependency; see DESIGN.md's dependency policy).
//!
//! A caller declares each of its options once, as a valued option or a
//! boolean flag, and [`Options::parse`] reads the tokens against that
//! declaration: a flag never takes the next token, a valued option
//! without a value is an error, and an undeclared option is rejected.
//! The `escalate` CLI reads every command's options through it, and
//! [`crate::experiments::ReportOptions::parse`] reads `report`'s.

use std::collections::{HashMap, HashSet};

/// A parsed option list: positional arguments, valued options, and flags.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Options {
    /// Tokens that are not options, in order.
    pub positional: Vec<String>,
    /// Valued options, by name.
    pub options: HashMap<String, String>,
    /// Flags that were passed.
    pub flags: HashSet<String>,
}

/// Option errors with user-facing messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// An option value failed to parse.
    BadValue {
        /// Option name.
        option: String,
        /// Offending value.
        value: String,
        /// What was expected.
        expected: &'static str,
    },
    /// An option the caller does not declare.
    UnknownOption(String),
    /// A valued option with no value after it.
    MissingValue(String),
    /// An option was given an explicit empty value (`--key=`).
    EmptyValue(String),
    /// An option appeared more than once.
    DuplicateOption(String),
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::BadValue {
                option,
                value,
                expected,
            } => {
                write!(f, "--{option}: expected {expected}, got {value:?}")
            }
            ArgError::UnknownOption(o) => write!(f, "unknown option --{o}"),
            ArgError::MissingValue(o) => write!(f, "--{o} requires a value"),
            ArgError::EmptyValue(o) => {
                write!(
                    f,
                    "--{o}= has an empty value; pass a value or drop the option"
                )
            }
            ArgError::DuplicateOption(o) => {
                write!(f, "--{o} given more than once; keep exactly one")
            }
        }
    }
}

impl std::error::Error for ArgError {}

impl Options {
    /// Reads `tokens` against the declared valued options (`--m 6` or
    /// `--m=6`) and flags (`--layers`).
    ///
    /// Half-parsed configurations are hard errors, not silent fallbacks:
    /// an explicit empty value (`--key=`) and a repeated option both
    /// reject the whole line. A one-shot run would merely produce a
    /// confusing result; a daemon started this way would serve it for its
    /// whole lifetime.
    ///
    /// # Errors
    ///
    /// Returns the [`ArgError`] for the first token that breaks the
    /// declaration.
    pub fn parse<I, S>(tokens: I, values: &[&str], flags: &[&str]) -> Result<Options, ArgError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut iter = tokens.into_iter().map(Into::into);
        let mut out = Options::default();
        while let Some(token) = iter.next() {
            let Some(body) = token.strip_prefix("--") else {
                out.positional.push(token);
                continue;
            };
            // `--key=value`: the value is inline (and may itself contain
            // `=` or start with `-`).
            let (key, inline) = match body.split_once('=') {
                Some((k, v)) => (k, Some(v)),
                None => (body, None),
            };
            let first = if flags.contains(&key) {
                if let Some(v) = inline {
                    return Err(ArgError::BadValue {
                        option: key.to_string(),
                        value: v.to_string(),
                        expected: "no value (it is a flag)",
                    });
                }
                out.flags.insert(key.to_string())
            } else if values.contains(&key) {
                let value = match inline {
                    Some("") => return Err(ArgError::EmptyValue(key.to_string())),
                    Some(v) => v.to_string(),
                    None => iter
                        .next()
                        .filter(|v| !v.starts_with("--"))
                        .ok_or_else(|| ArgError::MissingValue(key.to_string()))?,
                };
                out.options.insert(key.to_string(), value).is_none()
            } else {
                return Err(ArgError::UnknownOption(key.to_string()));
            };
            if !first {
                return Err(ArgError::DuplicateOption(key.to_string()));
            }
        }
        Ok(out)
    }

    /// Reads an option parsed as `T`, with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::BadValue`] when the value does not parse.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgError::BadValue {
                option: key.to_string(),
                value: v.clone(),
                expected: std::any::type_name::<T>(),
            }),
        }
    }

    /// Whether a flag was passed.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.contains(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each case's first token picks one of these declarations, modelled
    /// on the CLI's command table.
    fn parse(line: &[&str]) -> Result<Options, ArgError> {
        let (values, flags): (&[&str], &[&str]) = match line[0] {
            "simulate" => (&["schedule", "m", "seeds", "threads", "metrics"], &[]),
            "compress" => (&["m", "qat", "seed", "out"], &["layers"]),
            "sweep" => (&["out"], &[]),
            c => panic!("no test declaration for {c}"),
        };
        Options::parse(line[1..].iter().copied(), values, flags)
    }

    #[test]
    fn well_formed_lines_parse_per_the_command_table() {
        /// (line, positional, valued options, flags)
        type Case = (
            &'static [&'static str],
            &'static [&'static str],
            &'static [(&'static str, &'static str)],
            &'static [&'static str],
        );
        let cases: &[Case] = &[
            (
                &["simulate", "ResNet18", "--m", "7", "--seeds=2"],
                &["ResNet18"],
                &[("m", "7"), ("seeds", "2")],
                &[],
            ),
            // A flag never takes the next token.
            (
                &["compress", "--layers", "MobileNet"],
                &["MobileNet"],
                &[],
                &["layers"],
            ),
            (
                &["compress", "VGG16", "--layers", "--m", "5"],
                &["VGG16"],
                &[("m", "5")],
                &["layers"],
            ),
            // `=` values may contain `=` or start with `-`; only the first
            // `=` splits, and the form never takes the next token.
            (
                &["simulate", "--metrics=a=b", "--threads=-5", "next"],
                &["next"],
                &[("metrics", "a=b"), ("threads", "-5")],
                &[],
            ),
        ];
        for (line, positional, options, flags) in cases {
            let a = parse(line).unwrap_or_else(|e| panic!("{line:?}: {e}"));
            assert_eq!(a.positional, *positional, "{line:?}");
            let options: HashMap<String, String> = options
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect();
            assert_eq!(a.options, options, "{line:?}");
            let flags: HashSet<String> = flags.iter().map(|f| f.to_string()).collect();
            assert_eq!(a.flags, flags, "{line:?}");
        }
    }

    #[test]
    fn malformed_lines_are_typed_errors() {
        let missing = |o: &str| ArgError::MissingValue(o.to_string());
        let duplicate = |o: &str| ArgError::DuplicateOption(o.to_string());
        let cases: &[(&[&str], ArgError)] = &[
            (
                &["compress", "VGG16", "--bogus", "1"],
                ArgError::UnknownOption("bogus".into()),
            ),
            // `--threads` belongs to simulate, not compress.
            (
                &["compress", "VGG16", "--threads", "1"],
                ArgError::UnknownOption("threads".into()),
            ),
            (&["simulate", "MobileNet", "--metrics"], missing("metrics")),
            (
                &["simulate", "MobileNet", "--metrics", "--seeds", "1"],
                missing("metrics"),
            ),
            (&["sweep", "--out"], missing("out")),
            // `--key=` is never a usable value and never a flag.
            (&["simulate", "--m="], ArgError::EmptyValue("m".into())),
            // Last-wins duplicates would hide typos; both spellings count.
            (&["simulate", "--m", "5", "--m", "7"], duplicate("m")),
            (&["simulate", "--m=5", "--m", "7"], duplicate("m")),
            (&["compress", "--layers", "--layers"], duplicate("layers")),
            (
                &["compress", "--layers=yes"],
                ArgError::BadValue {
                    option: "layers".into(),
                    value: "yes".into(),
                    expected: "no value (it is a flag)",
                },
            ),
        ];
        for (line, want) in cases {
            assert_eq!(parse(line).as_ref(), Err(want), "{line:?}");
        }
        assert!(ArgError::MissingValue("metrics".into())
            .to_string()
            .contains("--metrics"));
        assert!(ArgError::EmptyValue("m".into())
            .to_string()
            .contains("--m="));
    }

    #[test]
    fn values_parse_with_defaults_and_report_bad_input() {
        let a = parse(&["compress", "VGG16", "--m", "six"]).unwrap();
        assert_eq!(a.get_or("seed", 42u64).unwrap(), 42);
        assert!(!a.flag("layers"));
        let e = a.get_or("m", 6usize).unwrap_err();
        assert!(matches!(e, ArgError::BadValue { .. }));
        assert!(e.to_string().contains("six"));
    }
}
