//! Flag parsing shared by the `selectd`, `selectcli` and `loadgen`
//! binaries: a missing or malformed flag value prints the binary's
//! usage and exits with code 2 instead of panicking.

use std::process::exit;
use std::str::FromStr;

/// The command-line arguments of one binary, read left to right.
pub struct Flags {
    args: std::iter::Skip<std::env::Args>,
    help: &'static str,
}

impl Flags {
    /// The process's arguments after the program name; `help` is the
    /// usage text printed with every error.
    pub fn new(help: &'static str) -> Self {
        Self {
            args: std::env::args().skip(1),
            help,
        }
    }

    /// The value after `flag`, or usage and exit 2.
    pub fn value(&mut self, flag: &str) -> String {
        self.args.next().unwrap_or_else(|| {
            eprintln!("{flag} needs a value\n{}", self.help);
            exit(2);
        })
    }

    /// The parsed value after `flag`, or usage and exit 2.
    pub fn parse<T: FromStr>(&mut self, flag: &str) -> T {
        let v = self.value(flag);
        self.parse_str(flag, &v)
    }

    /// `v` parsed as (part of) the value of `flag`, or usage and exit 2.
    pub fn parse_str<T: FromStr>(&self, flag: &str, v: &str) -> T {
        v.parse().unwrap_or_else(|_| {
            eprintln!("bad value for {flag}: {v}\n{}", self.help);
            exit(2);
        })
    }
}

impl Iterator for Flags {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        self.args.next()
    }
}
