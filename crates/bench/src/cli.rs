//! Minimal command-line parsing for the flags `run_scenario` and
//! `sd_validate` have in common. Each binary names the flags it honours
//! (and describes them in its own usage text); any other flag — including
//! one the other binary accepts — is reported as `unknown flag` (exit
//! code 2), never accepted and ignored. `--help`/`-h` is always understood.

use sd_scenario::{Scenario, SourceKind};

/// How parsing can terminate without yielding arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// `--help`/`-h` was given: print the binary's usage, exit 0.
    Help,
    /// A real parse error: print message + usage, exit 2.
    Bad(String),
}

/// Reads a flag's value as the scenario key it overrides is read from a
/// file — same parser, same range check — into a scratch scenario.
fn through_key(flag: &str, name: &str, value: &str) -> Result<Scenario, CliError> {
    let mut scratch = Scenario::new("cli", SourceKind::Ricc);
    scratch.set_flag(flag, "scenario", name, value).map_err(CliError::Bad)?;
    Ok(scratch)
}

/// Parsed command-line arguments.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CliArgs {
    pub scale: Option<f64>,
    pub full: bool,
    /// `--seed` as given; `None` when absent, so an explicit `--seed 42`
    /// is distinguishable from the default.
    pub seed: Option<u64>,
    /// Worker-thread cap for parallel sweeps (None = machine parallelism).
    pub threads: Option<usize>,
    /// Output file for machine-readable results (JSON/CSV).
    pub out: Option<String>,
}

impl CliArgs {
    /// Parses from an iterator of arguments (without the program name),
    /// accepting only the common flags listed in `accepted`.
    pub fn parse<I: IntoIterator<Item = String>>(
        args: I,
        accepted: &[&str],
    ) -> Result<CliArgs, CliError> {
        let mut out = CliArgs::default();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            if matches!(a.as_str(), "--help" | "-h") {
                return Err(CliError::Help);
            }
            if !accepted.contains(&a.as_str()) {
                return Err(CliError::Bad(format!("unknown flag: {a}")));
            }
            let mut value = |flag: &str| {
                it.next()
                    .ok_or_else(|| CliError::Bad(format!("{flag} needs a value")))
            };
            match a.as_str() {
                "--full" => out.full = true,
                "--scale" => out.scale = through_key("--scale", "scale", &value("--scale")?)?.scale,
                "--seed" => out.seed = Some(through_key("--seed", "seed", &value("--seed")?)?.seed),
                "--threads" => {
                    let v = value("--threads")?;
                    let n: usize = v
                        .parse()
                        .map_err(|_| CliError::Bad(format!("bad thread count: {v}")))?;
                    if n == 0 {
                        return Err(CliError::Bad("--threads must be at least 1".into()));
                    }
                    out.threads = Some(n);
                }
                "--out" => out.out = Some(value("--out")?),
                other => return Err(CliError::Bad(format!("unknown flag: {other}"))),
            }
        }
        Ok(out)
    }

    /// The scale the command line asks for: `--full` → 1.0, else `--scale`,
    /// else `None` (the scenario's own).
    pub fn effective_scale(&self) -> Option<f64> {
        if self.full {
            Some(1.0)
        } else {
            self.scale
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [&str; 5] = ["--scale", "--full", "--seed", "--threads", "--out"];

    fn parse(args: &[&str]) -> Result<CliArgs, CliError> {
        CliArgs::parse(args.iter().map(|s| s.to_string()), &ALL)
    }

    #[test]
    fn defaults() {
        let a = parse(&[]).unwrap();
        assert_eq!(a, CliArgs::default());
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
        let a = parse(&["--scale", "0.5", "--full"]).unwrap();
        assert_eq!(a.effective_scale(), Some(1.0));
    }

    #[test]
    fn errors_are_reported() {
        assert!(matches!(parse(&["--scale"]), Err(CliError::Bad(_))));
        assert!(matches!(parse(&["--scale", "abc"]), Err(CliError::Bad(_))));
        // A value the `.scn` parser refuses is refused here, in its words.
        for bad in ["-1", "0", "nan", "inf"] {
            let want = format!("bad --scale: `scale` must be > 0, got {bad}");
            assert_eq!(parse(&["--scale", bad]), Err(CliError::Bad(want)));
        }
        assert!(matches!(parse(&["--seed", "-7"]), Err(CliError::Bad(_))));
        assert!(matches!(parse(&["--bogus"]), Err(CliError::Bad(_))));
        // Removed flags are typos like any other.
        for gone in ["--backend", "--swf"] {
            assert_eq!(
                parse(&[gone, "x"]),
                Err(CliError::Bad(format!("unknown flag: {gone}")))
            );
        }
        assert!(matches!(parse(&["--threads", "0"]), Err(CliError::Bad(_))));
        assert!(matches!(parse(&["--threads", "x"]), Err(CliError::Bad(_))));
    }

    #[test]
    fn explicit_default_seed_is_distinguishable() {
        assert_eq!(parse(&[]).unwrap().seed, None);
        assert_eq!(parse(&["--seed", "42"]).unwrap().seed, Some(42));
    }

    #[test]
    fn unsupported_flags_are_detected() {
        // A binary that honours only `--threads` rejects the rest at parse
        // time instead of accepting and ignoring them.
        let only_threads =
            |args: &[&str]| CliArgs::parse(args.iter().map(|s| s.to_string()), &["--threads"]);
        assert_eq!(only_threads(&["--threads", "2"]).unwrap().threads, Some(2));
        for flag in ["--scale", "--full", "--seed", "--out"] {
            assert_eq!(
                only_threads(&[flag, "1"]),
                Err(CliError::Bad(format!("unknown flag: {flag}")))
            );
        }
    }

    #[test]
    fn help_is_distinguished_from_errors() {
        assert_eq!(parse(&["--help"]), Err(CliError::Help));
        assert_eq!(parse(&["-h"]), Err(CliError::Help));
        // Help wins over a flag the binary does not honour.
        assert_eq!(parse(&["--help", "--bogus"]), Err(CliError::Help));
    }
}
