//! The one `--flag` parser of the workspace's binaries (`tfm`, the
//! `bench_*` gates and `crash_child`).
//!
//! A binary declares its flags once, as a usage synopsis such as
//! `tfm generate --count N --out FILE [--seed S] [--verify]`. The words
//! before the first flag name the command. From the rest the parser reads
//! three facts per flag: a flag followed by a word takes a value (`--seed
//! S`), a bare flag is a switch (`[--verify]`), and a flag outside `[…]` is
//! required (`--count N`). Anything else on the command line is an error
//! that names the flag or word: an undeclared flag, a flag without its
//! value, a flag given twice, a word no flag takes, a switch given a value,
//! a required flag left out (that error shows the synopsis).

use std::path::PathBuf;
use std::str::FromStr;

/// One flag of a synopsis.
#[derive(Debug)]
struct Flag {
    name: String,
    takes_value: bool,
    required: bool,
}

/// The flags a binary was given, checked against its synopsis.
#[derive(Debug)]
pub struct Args {
    given: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parses `args` against `synopsis` (see the module documentation).
    pub fn parse(synopsis: &str, args: &[String]) -> Result<Args, String> {
        let spaced = synopsis.replace('[', " [ ").replace(']', " ] ");
        let words: Vec<&str> = spaced.split_whitespace().collect();
        let first_flag = words.iter().position(|w| w.starts_with("--") || *w == "[");
        let name = words[..first_flag.unwrap_or(words.len())].join(" ");
        let mut declared = Vec::new();
        let mut depth = 0;
        for (i, word) in words.iter().enumerate() {
            match *word {
                "[" => depth += 1,
                "]" => depth -= 1,
                flag if flag.starts_with("--") => declared.push(Flag {
                    name: flag.to_string(),
                    takes_value: words
                        .get(i + 1)
                        .is_some_and(|next| !next.starts_with("--") && !["[", "]"].contains(next)),
                    required: depth == 0,
                }),
                _ => {}
            }
        }

        let mut given: Vec<(String, Option<String>)> = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            let Some(flag) = declared.iter().find(|f| f.name == *arg) else {
                return Err(match arg.starts_with("--") {
                    true => format!("unknown option `{arg}` for `{name}`"),
                    false => format!("unexpected argument `{arg}` for `{name}`"),
                });
            };
            if given.iter().any(|(f, _)| f == arg) {
                return Err(format!("option `{arg}` for `{name}` is given twice"));
            }
            let value = match flag.takes_value {
                true => match it.next_if(|v| !v.starts_with("--")) {
                    Some(v) => Some(v.clone()),
                    None => return Err(format!("option `{arg}` for `{name}` needs a value")),
                },
                false => None,
            };
            given.push((arg.clone(), value));
        }
        let is_given = |flag: &Flag| given.iter().any(|(g, _)| *g == flag.name);
        if let Some(missing) = declared.iter().find(|f| f.required && !is_given(f)) {
            let usage = synopsis.split_whitespace().collect::<Vec<_>>().join(" ");
            return Err(format!(
                "missing required option `{}` for `{name}` (usage: {usage})",
                missing.name
            ));
        }
        Ok(Args { given })
    }

    /// [`Args::parse`] over the process arguments; an error ends the
    /// process with exit code 2 before anything runs.
    pub fn from_env(synopsis: &str) -> Args {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Args::parse(synopsis, &args).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2)
        })
    }

    /// What was given for `flag`: `None` when it was not (always, for a
    /// flag the synopsis does not declare), `Some(None)` for a switch.
    fn lookup(&self, flag: &str) -> Option<&Option<String>> {
        self.given.iter().find(|(f, _)| f == flag).map(|(_, v)| v)
    }

    /// The value given for `flag`, if any.
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.lookup(flag).and_then(Option::as_deref)
    }

    /// The value of a flag the synopsis marks required.
    pub fn required(&self, flag: &str) -> &str {
        self.get(flag)
            .expect("parse checks that required flags are given")
    }

    /// Whether the switch `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.lookup(flag).is_some()
    }

    /// The value of `flag` parsed as a `T`, if given.
    pub fn value<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        let parse = |v: &str| v.parse().map_err(|_| format!("invalid {flag}: `{v}`"));
        self.get(flag).map(parse).transpose()
    }

    /// The value of `flag` as a count, which must be at least 1, if given.
    pub fn count(&self, flag: &str) -> Result<Option<usize>, String> {
        match self.value(flag)? {
            Some(0) => Err(format!("{flag} must be at least 1")),
            n => Ok(n),
        }
    }

    /// The `--dir` value, or `{tag}_{pid}` under the system's temporary
    /// directory. The flag is true for the latter: the run made the
    /// directory, so the run removes it.
    pub fn dir_or_temp(&self, tag: &str) -> (PathBuf, bool) {
        match self.get("--dir") {
            Some(dir) => (PathBuf::from(dir), false),
            None => {
                let name = format!("{tag}_{}", std::process::id());
                (std::env::temp_dir().join(name), true)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SYNOPSIS: &str = "tfm generate --count N --out FILE [--seed S]
                [--dir DIR] [--verify]";

    fn parse(args: &[&str]) -> Result<Args, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        Args::parse(SYNOPSIS, &args)
    }

    #[test]
    fn args_take_known_flags_with_values_and_nothing_else() {
        let args = parse(&["--out", "a.elems", "--count", "5", "--verify", "--dir", "d"]).unwrap();
        assert_eq!(args.required("--out"), "a.elems");
        assert_eq!(args.value::<usize>("--count"), Ok(Some(5)));
        assert_eq!(args.value::<u64>("--seed"), Ok(None));
        assert!(args.has("--verify"));
        assert_eq!(args.dir_or_temp("t"), ("d".into(), false));
        let bare = parse(&["--count", "0", "--out", "x", "--seed", "-1"]).unwrap();
        assert!(!bare.has("--verify") && bare.dir_or_temp("t").1);
        assert_eq!(
            bare.count("--count"),
            Err("--count must be at least 1".into())
        );
        assert_eq!(
            bare.value::<u64>("--seed"),
            Err("invalid --seed: `-1`".into())
        );
    }

    #[test]
    fn every_misparse_is_an_error_that_names_the_flag_or_word() {
        for (bad, says) in [
            (
                &["--count", "5", "--out", "a", "--seed"][..],
                "option `--seed` for `tfm generate` needs a value",
            ),
            (
                &["--count", "5", "--out", "a", "stray"],
                "unexpected argument `stray` for `tfm generate`",
            ),
            (
                &["--count", "50", "--count", "60"],
                "option `--count` for `tfm generate` is given twice",
            ),
            (
                &["--count", "5", "--out", "a", "--verify", "yes"],
                "unexpected argument `yes`",
            ),
            (
                &["--count", "50", "--out", "--seed", "3"],
                "option `--out` for `tfm generate` needs a value",
            ),
            (
                &["--count", "5", "--out", "a", "--ot", "x"],
                "unknown option `--ot` for `tfm generate`",
            ),
        ] {
            let err = parse(bad).unwrap_err();
            assert!(err.contains(says), "{bad:?}: {err}");
        }
        let err = parse(&["--count", "5"]).unwrap_err();
        assert_eq!(
            err,
            "missing required option `--out` for `tfm generate` (usage: tfm generate \
             --count N --out FILE [--seed S] [--dir DIR] [--verify])"
        );
    }
}
