//! Command-line flags as rows. A binary declares each flag it accepts once,
//! as a [`Flag`] of its table; [`parse`] walks the arguments against that
//! table and [`usage`] renders it as the `--help` text. A flag that stands
//! for a `.scn` key is read through the key's row ([`Value::key`], i.e.
//! [`Scenario::set_flag`]), so a value a scenario file may not hold is
//! refused in the key's own words.
//!
//! Three rules hold for every binary: the first flag decides (`--help`/`-h`
//! ahead of any refusal is [`Stop::Help`], `--bogus --help` is
//! `unknown flag: --bogus`), a flag no row names is `unknown flag: <flag>`,
//! and a value flag given last is `<flag> needs a value`.

use crate::{Scenario, SourceKind};
use std::str::FromStr;

/// One flag of a binary whose settings are a `C`.
pub struct Flag<C> {
    /// The flag as typed: `--name`.
    name: &'static str,
    /// What the flag does; a `\n` continues it on an indented line.
    help: &'static str,
    takes: Takes<C>,
}

/// What a flag takes, and what it sets.
enum Takes<C> {
    /// Nothing: a switch.
    Nothing(fn(&mut C)),
    /// The next argument, shown as the hint (`<n>`) in the usage; the
    /// function sets what the flag sets, or refuses the value.
    Value(&'static str, fn(&mut C, &Value) -> Result<(), String>),
}

impl<C> Flag<C> {
    /// A flag that takes the next argument as its value.
    pub const fn value(
        name: &'static str, hint: &'static str, help: &'static str,
        apply: fn(&mut C, &Value) -> Result<(), String>,
    ) -> Flag<C> {
        Flag { name, help, takes: Takes::Value(hint, apply) }
    }

    /// A flag that takes no value.
    pub const fn switch(name: &'static str, help: &'static str, apply: fn(&mut C)) -> Flag<C> {
        Flag { name, help, takes: Takes::Nothing(apply) }
    }
}

/// A flag's value as given, beside the flag it was given to; the rules
/// several binaries apply to their values are its methods.
pub struct Value<'a> {
    pub flag: &'static str,
    pub text: &'a str,
}

impl Value<'_> {
    /// The value as a `T`, or `bad <flag>: <text>`.
    pub fn parse<T: FromStr>(&self) -> Result<T, String> {
        self.text.parse().map_err(|_| format!("bad {}: {}", self.flag, self.text))
    }

    /// A count of at least 1: `<flag> must be at least 1` for 0.
    pub fn at_least_1<T: FromStr + PartialOrd + From<u8>>(&self) -> Result<T, String> {
        let n: T = self.parse()?;
        if n < T::from(1) {
            return Err(format!("{} must be at least 1", self.flag));
        }
        Ok(n)
    }

    /// A number > 0 and finite, or `<flag> must be a finite number > 0`.
    pub fn positive(&self) -> Result<f64, String> {
        let x: Option<f64> = self.text.parse().ok();
        x.filter(|x| *x > 0.0 && x.is_finite())
            .ok_or_else(|| format!("{} must be a finite number > 0", self.flag))
    }

    /// Sets `s`'s `.scn` key `[section] name` through its row of
    /// [`KEYS`](crate::KEYS): the file's parser and range check, refused as
    /// `bad <flag>: <the row's message>`.
    pub fn key(&self, s: &mut Scenario, section: &str, name: &str) -> Result<(), String> {
        s.set_flag(self.flag, section, name, self.text)
    }

    /// The value read through the key `[scenario] name` into a fresh
    /// scenario, for a flag that overrides that key where it is used.
    pub fn scenario_key(&self, name: &str) -> Result<Scenario, String> {
        let mut scratch = Scenario::new("flags", SourceKind::Ricc);
        self.key(&mut scratch, "scenario", name)?;
        Ok(scratch)
    }

    /// A log verbosity: `error|warn|info|debug|trace`.
    pub fn level(&self) -> Result<sd_obs::Level, String> {
        sd_obs::Level::parse(self.text).ok_or_else(|| {
            format!("{} must be error|warn|info|debug|trace, got {}", self.flag, self.text)
        })
    }
}

/// Why [`parse`] stopped short of the last argument.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stop {
    /// `--help` or `-h` came first: print [`usage`], exit 0.
    Help,
    /// A refusal: print it with [`usage`], exit 2.
    Bad(String),
}

/// Applies `args` (without the program name) to `into`, row by row, in
/// the order given. Prints nothing.
pub fn parse<C>(
    flags: &[Flag<C>],
    args: impl IntoIterator<Item = String>,
    into: &mut C,
) -> Result<(), Stop> {
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if arg == "--help" || arg == "-h" {
            return Err(Stop::Help);
        }
        let Some(flag) = flags.iter().find(|f| f.name == arg) else {
            return Err(Stop::Bad(format!("unknown flag: {arg}")));
        };
        match flag.takes {
            Takes::Nothing(apply) => apply(into),
            Takes::Value(_, apply) => {
                let needs = || Stop::Bad(format!("{} needs a value", flag.name));
                let text = args.next().ok_or_else(needs)?;
                apply(into, &Value { flag: flag.name, text: &text }).map_err(Stop::Bad)?;
            }
        }
    }
    Ok(())
}

/// [`parse`] of the process's arguments: `--help` prints the usage on
/// stdout and exits 0, and a refusal is handed to the binary's `fail`.
pub fn parse_args<C>(title: &str, flags: &[Flag<C>], into: &mut C, fail: fn(&str) -> !) {
    match parse(flags, std::env::args().skip(1), into) {
        Ok(()) => {}
        Err(Stop::Help) => {
            println!("{}", usage(title, flags));
            std::process::exit(0);
        }
        Err(Stop::Bad(msg)) => fail(&msg),
    }
}

/// Labels up to this wide set the help column; a longer one runs into its
/// help two spaces after it.
const LABEL_COLUMN: usize = 24;

/// The `--help` text: `title`, then one entry per row and `--help, -h`.
pub fn usage<C>(title: &str, flags: &[Flag<C>]) -> String {
    let mut rows: Vec<(String, &str)> = (flags.iter())
        .map(|f| match f.takes {
            Takes::Value(hint, _) => (format!("{} {hint}", f.name), f.help),
            Takes::Nothing(_) => (f.name.to_string(), f.help),
        })
        .collect();
    rows.push(("--help, -h".to_string(), "show this help"));
    let labels = rows.iter().map(|(label, _)| label.len());
    let width = labels.filter(|&w| w <= LABEL_COLUMN).max().unwrap_or(0);
    let mut out = format!("{title}\n");
    for (label, help) in &rows {
        let mut lines = help.lines();
        out.push_str(&format!("\n  {label:width$}  {}", lines.next().unwrap_or("")));
        for line in lines {
            out.push_str(&format!("\n  {:width$}  {line}", ""));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    //! The parser over a table of the five flags `run_scenario` shares
    //! with `sd_validate`, built from this module's value rules.
    use super::*;

    #[derive(Debug, Default, PartialEq)]
    struct Common {
        scale: Option<f64>,
        full: bool,
        seed: Option<u64>,
        threads: Option<usize>,
        out: Option<String>,
    }

    impl Common {
        fn effective_scale(&self) -> Option<f64> {
            if self.full {
                Some(1.0)
            } else {
                self.scale
            }
        }
    }

    const ALL: [Flag<Common>; 5] = [
        Flag::value("--scale", "<f64>", "scale", |c, v| {
            v.scenario_key("scale").map(|s| c.scale = s.scale)
        }),
        Flag::switch("--full", "scale 1", |c| c.full = true),
        Flag::value("--seed", "<u64>", "seed", |c, v| {
            v.scenario_key("seed").map(|s| c.seed = Some(s.seed))
        }),
        Flag::value("--threads", "<n>", "threads", |c, v| {
            v.at_least_1().map(|n| c.threads = Some(n))
        }),
        Flag::value("--out", "<path>", "output", |c, v| v.parse().map(|p| c.out = Some(p))),
    ];

    fn parse_with(flags: &[Flag<Common>], args: &[&str]) -> Result<Common, Stop> {
        let mut c = Common::default();
        super::parse(flags, args.iter().map(|s| s.to_string()), &mut c)?;
        Ok(c)
    }

    fn parse(args: &[&str]) -> Result<Common, Stop> {
        parse_with(&ALL, args)
    }

    #[test]
    fn defaults() {
        let a = parse(&[]).unwrap();
        assert_eq!(a, Common::default());
        assert_eq!(a.effective_scale(), None);
    }

    #[test]
    fn all_flags() {
        let a = parse(&[
            "--scale", "0.5", "--seed", "7", "--threads", "3", "--out", "res.json",
        ])
        .unwrap();
        assert_eq!(a.scale, Some(0.5));
        assert_eq!(a.seed, Some(7));
        assert_eq!(a.threads, Some(3));
        assert_eq!(a.out.as_deref(), Some("res.json"));
        assert_eq!(a.effective_scale(), Some(0.5));
    }

    #[test]
    fn full_overrides_scale() {
        for args in [["--scale", "0.5", "--full"], ["--full", "--scale", "0.5"]] {
            assert_eq!(parse(&args).unwrap().effective_scale(), Some(1.0));
        }
    }

    #[test]
    fn errors_are_reported() {
        let bad = |m: &str| Err(Stop::Bad(m.to_string()));
        assert_eq!(parse(&["--scale"]), bad("--scale needs a value"));
        assert!(matches!(parse(&["--scale", "abc"]), Err(Stop::Bad(_))));
        // A value the `.scn` parser refuses is refused here, in its words.
        for v in ["-1", "0", "nan", "inf"] {
            assert_eq!(
                parse(&["--scale", v]),
                bad(&format!("bad --scale: `scale` must be > 0, got {v}"))
            );
        }
        assert!(matches!(parse(&["--seed", "-7"]), Err(Stop::Bad(_))));
        assert_eq!(parse(&["--bogus"]), bad("unknown flag: --bogus"));
        // Removed flags are typos like any other.
        for gone in ["--backend", "--swf"] {
            assert_eq!(parse(&[gone, "x"]), bad(&format!("unknown flag: {gone}")));
        }
        assert_eq!(parse(&["--threads", "0"]), bad("--threads must be at least 1"));
        assert_eq!(parse(&["--threads", "x"]), bad("bad --threads: x"));
        // The first refusal wins.
        assert_eq!(parse(&["--threads", "0", "--bogus"]), bad("--threads must be at least 1"));
    }

    #[test]
    fn explicit_default_seed_is_distinguishable() {
        assert_eq!(parse(&[]).unwrap().seed, None);
        assert_eq!(parse(&["--seed", "42"]).unwrap().seed, Some(42));
    }

    #[test]
    fn unsupported_flags_are_detected() {
        // A table that holds only `--threads` refuses the rest at parse time
        // instead of accepting and ignoring them.
        let only_threads = |args: &[&str]| parse_with(&ALL[3..4], args);
        assert_eq!(only_threads(&["--threads", "2"]).unwrap().threads, Some(2));
        for flag in ["--scale", "--full", "--seed", "--out"] {
            assert_eq!(
                only_threads(&[flag, "1"]),
                Err(Stop::Bad(format!("unknown flag: {flag}")))
            );
        }
    }

    #[test]
    fn help_is_distinguished_from_errors() {
        assert_eq!(parse(&["--help"]), Err(Stop::Help));
        assert_eq!(parse(&["-h"]), Err(Stop::Help));
        // Help wins over a flag the table does not hold, when it comes first.
        assert_eq!(parse(&["--help", "--bogus"]), Err(Stop::Help));
        assert_eq!(parse(&["--bogus", "--help"]), Err(Stop::Bad("unknown flag: --bogus".into())));
        // A value flag takes the next argument, whatever it is.
        assert!(matches!(parse(&["--out", "--help"]), Ok(Common { out: Some(_), .. })));
    }

    #[test]
    fn usage_lists_every_row_in_its_column() {
        let text = usage("tool — does things", &ALL);
        let want = "tool — does things\n\n  \
                    --scale <f64>  scale\n  \
                    --full         scale 1\n  \
                    --seed <u64>   seed\n  \
                    --threads <n>  threads\n  \
                    --out <path>   output\n  \
                    --help, -h     show this help";
        assert_eq!(text, want);
        let long: [Flag<Common>; 1] =
            [Flag::value("--a-very-long-flag-name", "<w1|w2|w3|w4>", "one\ntwo", |_, _| Ok(()))];
        let want = "t\n\n  --a-very-long-flag-name <w1|w2|w3|w4>  one\n              two\n  \
                    --help, -h  show this help";
        assert_eq!(usage("t", &long), want);
    }

    #[test]
    fn shared_value_rules() {
        let v = |text| Value { flag: "--x", text };
        assert_eq!(v("3").at_least_1::<u32>(), Ok(3));
        assert_eq!(v("0").at_least_1::<u32>(), Err("--x must be at least 1".into()));
        assert_eq!(v("-1").at_least_1::<u32>(), Err("bad --x: -1".into()));
        assert_eq!(v("2.5").positive(), Ok(2.5));
        for bad in ["0", "-1", "inf", "-inf", "nan", "x"] {
            assert_eq!(v(bad).positive(), Err("--x must be a finite number > 0".into()), "{bad}");
        }
        assert!(v("debug").level().is_ok());
        assert_eq!(
            v("loud").level(),
            Err("--x must be error|warn|info|debug|trace, got loud".into())
        );
    }
}
