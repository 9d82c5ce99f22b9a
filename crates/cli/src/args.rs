//! Command lookup for the `escalate` CLI.
//!
//! The first token names a subcommand in [`crate::commands::COMMANDS`];
//! the shared option reader ([`escalate_bench::args`]) reads the rest
//! against the valued options and flags that command declares, so an
//! undeclared option is rejected before any command runs.

use crate::commands::CliError;
use escalate_bench::args::Options;

/// How a command reads the tokens after its name.
#[derive(Debug, Clone, Copy)]
pub enum Grammar {
    /// Positional arguments plus declared options.
    Options {
        /// Options that take a value (`--m 6` or `--m=6`).
        values: &'static [&'static str],
        /// Boolean switches (`--layers`); they never take a value.
        flags: &'static [&'static str],
    },
    /// Every token goes unchanged to the command's own parser.
    PassThrough,
}

/// A parsed command line: the subcommand and its options.
#[derive(Debug, Clone)]
pub struct ParsedArgs {
    /// Subcommand name, as declared in the command table.
    pub command: &'static str,
    /// The tokens after the subcommand (all of them as positionals, for a
    /// pass-through command).
    pub args: Options,
}

impl ParsedArgs {
    /// Parses raw arguments (without the program name) against the
    /// command table. The first token names the command; the command's
    /// [`Grammar`] reads the rest.
    ///
    /// # Errors
    ///
    /// [`CliError::MissingCommand`] or [`CliError::UnknownCommand`] when
    /// the first token names no command, else the option reader's error
    /// for the first token that breaks the command's grammar.
    pub fn parse<I, S>(args: I) -> Result<ParsedArgs, CliError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut iter = args.into_iter().map(Into::into);
        let name = iter.next().ok_or(CliError::MissingCommand)?;
        let command = crate::commands::find(&name).ok_or(CliError::UnknownCommand(name))?;
        let args = match command.grammar {
            Grammar::PassThrough => Options {
                positional: iter.collect(),
                ..Options::default()
            },
            Grammar::Options { values, flags } => Options::parse(iter, values, flags)?,
        };
        Ok(ParsedArgs {
            command: command.name,
            args,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_first_token_names_a_declared_command() {
        assert!(matches!(
            ParsedArgs::parse(Vec::<String>::new()),
            Err(CliError::MissingCommand)
        ));
        assert!(matches!(
            ParsedArgs::parse(["frobnicate"]),
            Err(CliError::UnknownCommand(c)) if c == "frobnicate"
        ));
        // `--threads` belongs to simulate, not compress.
        assert!(matches!(
            ParsedArgs::parse(["compress", "VGG16", "--threads", "1"]),
            Err(CliError::Args(escalate_bench::args::ArgError::UnknownOption(o))) if o == "threads"
        ));
        // A pass-through command keeps every token, in order.
        let line = ["report", "--check", "table4", "--", "ResNet18"];
        let a = ParsedArgs::parse(line).unwrap();
        assert_eq!(a.command, "report");
        assert_eq!(a.args.positional, line[1..]);
        assert!(a.args.options.is_empty() && a.args.flags.is_empty());
    }

    #[test]
    fn every_option_is_declared_once_per_command() {
        for c in crate::commands::COMMANDS {
            let Grammar::Options { values, flags } = c.grammar else {
                continue;
            };
            let mut names: Vec<&str> = values.iter().chain(flags).copied().collect();
            names.sort_unstable();
            let declared = names.len();
            names.dedup();
            assert_eq!(
                names.len(),
                declared,
                "{}: an option declared twice",
                c.name
            );
        }
    }
}
