//! Minimal command-line parsing for the experiment binaries.
//!
//! Flags (all optional):
//! * `--scale <f64>` — workload/system scale (default: per-workload CI size)
//! * `--full` — paper-scale run (`scale = 1.0`)
//! * `--seed <u64>` — RNG seed (default 42)
//! * `--swf <path>` — replay a genuine SWF trace instead of the synthetic
//!   generator (Workloads 3/4, see DESIGN.md §4)
//! * `--threads <n>` — cap the sweep's worker threads (default: all cores)
//! * `--out <path>` — write machine-readable output (JSON/CSV) to a file
//!
//! Unknown flags are reported as errors (exit code 2), never ignored;
//! `--help`/`-h` prints the usage text and exits 0.

/// Usage text shared by every binary (binaries with extra flags print their
/// own header above this).
pub const USAGE: &str = "common flags:
  --scale <f64>    workload/system scale (default: per-workload CI size)
  --full           paper-scale run (scale = 1.0)
  --seed <u64>     RNG seed (default 42)
  --swf <path>     replay a genuine SWF trace
  --threads <n>    cap parallel sweep threads (default: all cores)
  --out <path>     write JSON (.json) or CSV output to this file
  --help, -h       show this help";

/// How parsing can terminate without yielding arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// `--help`/`-h` was given: print usage, exit 0.
    Help,
    /// A real parse error: print message + usage, exit 2.
    Bad(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Help => write!(f, "{USAGE}"),
            CliError::Bad(msg) => write!(f, "{msg}"),
        }
    }
}

/// Parsed command-line arguments.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CliArgs {
    pub scale: Option<f64>,
    pub full: bool,
    /// `--seed` as given; `None` when absent (see [`CliArgs::effective_seed`]).
    pub seed: Option<u64>,
    pub swf: Option<String>,
    /// Worker-thread cap for parallel sweeps (None = machine parallelism).
    pub threads: Option<usize>,
    /// Output file for machine-readable results (JSON/CSV).
    pub out: Option<String>,
}

impl CliArgs {
    /// Parses from an iterator of arguments (without the program name).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<CliArgs, CliError> {
        let mut out = CliArgs::default();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            let mut value = |flag: &str| {
                it.next()
                    .ok_or_else(|| CliError::Bad(format!("{flag} needs a value")))
            };
            match a.as_str() {
                "--full" => out.full = true,
                "--scale" => {
                    let v = value("--scale")?;
                    out.scale =
                        Some(v.parse().map_err(|_| CliError::Bad(format!("bad scale: {v}")))?);
                }
                "--seed" => {
                    let v = value("--seed")?;
                    out.seed =
                        Some(v.parse().map_err(|_| CliError::Bad(format!("bad seed: {v}")))?);
                }
                "--threads" => {
                    let v = value("--threads")?;
                    let n: usize =
                        v.parse().map_err(|_| CliError::Bad(format!("bad thread count: {v}")))?;
                    if n == 0 {
                        return Err(CliError::Bad("--threads must be at least 1".into()));
                    }
                    out.threads = Some(n);
                }
                "--swf" => out.swf = Some(value("--swf")?),
                "--out" => out.out = Some(value("--out")?),
                "--help" | "-h" => return Err(CliError::Help),
                other => return Err(CliError::Bad(format!("unknown flag: {other}"))),
            }
        }
        Ok(out)
    }

    /// Parses the real process arguments; prints usage and exits 0 on
    /// `--help`, prints the error + usage and exits 2 on anything malformed.
    pub fn from_env() -> CliArgs {
        match Self::parse(std::env::args().skip(1)) {
            Ok(a) => a,
            Err(CliError::Help) => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            Err(CliError::Bad(msg)) => {
                eprintln!("{msg}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// The effective scale: `--full` → 1.0, else `--scale`, else the
    /// workload default.
    pub fn effective_scale(&self, default: f64) -> f64 {
        if self.full {
            1.0
        } else {
            self.scale.unwrap_or(default)
        }
    }

    /// The effective RNG seed (default 42). Kept as an `Option` internally
    /// so callers can distinguish an explicit `--seed 42` from the default.
    pub fn effective_seed(&self) -> u64 {
        self.seed.unwrap_or(42)
    }

    /// The first common flag this binary does not implement, if any.
    /// `supported` lists the optional flags it honours (`"--out"`,
    /// `"--threads"`, `"--swf"`); `--scale`/`--full`/`--seed` are
    /// universal and never rejected.
    pub fn unsupported(&self, supported: &[&str]) -> Option<&'static str> {
        if self.out.is_some() && !supported.contains(&"--out") {
            return Some("--out");
        }
        if self.threads.is_some() && !supported.contains(&"--threads") {
            return Some("--threads");
        }
        if self.swf.is_some() && !supported.contains(&"--swf") {
            return Some("--swf");
        }
        None
    }

    /// Exits with code 2 if a flag this binary does not implement was
    /// given — accepted-but-ignored flags would silently lie to the user.
    pub fn require_supported(&self, bin: &str, supported: &[&str]) {
        if let Some(flag) = self.unsupported(supported) {
            eprintln!("{bin} does not support {flag}\n{USAGE}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CliArgs, CliError> {
        CliArgs::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]).unwrap();
        assert_eq!(a, CliArgs::default());
        assert_eq!(a.effective_scale(0.1), 0.1);
    }

    #[test]
    fn all_flags() {
        let a = parse(&[
            "--scale", "0.5", "--seed", "7", "--swf", "x.swf", "--threads", "3", "--out",
            "res.json",
        ])
        .unwrap();
        assert_eq!(a.scale, Some(0.5));
        assert_eq!(a.seed, Some(7));
        assert_eq!(a.effective_seed(), 7);
        assert_eq!(a.swf.as_deref(), Some("x.swf"));
        assert_eq!(a.threads, Some(3));
        assert_eq!(a.out.as_deref(), Some("res.json"));
        assert_eq!(a.effective_scale(0.1), 0.5);
    }

    #[test]
    fn full_overrides_scale() {
        let a = parse(&["--scale", "0.5", "--full"]).unwrap();
        assert_eq!(a.effective_scale(0.1), 1.0);
    }

    #[test]
    fn errors_are_reported() {
        assert!(matches!(parse(&["--scale"]), Err(CliError::Bad(_))));
        assert!(matches!(parse(&["--scale", "abc"]), Err(CliError::Bad(_))));
        assert!(matches!(parse(&["--bogus"]), Err(CliError::Bad(_))));
        // The removed availability-backend flag is a typo like any other.
        assert_eq!(
            parse(&["--backend", "profile"]),
            Err(CliError::Bad("unknown flag: --backend".into()))
        );
        assert!(matches!(parse(&["--threads", "0"]), Err(CliError::Bad(_))));
        assert!(matches!(parse(&["--threads", "x"]), Err(CliError::Bad(_))));
    }

    #[test]
    fn explicit_default_seed_is_distinguishable() {
        assert_eq!(parse(&[]).unwrap().seed, None);
        assert_eq!(parse(&[]).unwrap().effective_seed(), 42);
        assert_eq!(parse(&["--seed", "42"]).unwrap().seed, Some(42));
    }

    #[test]
    fn unsupported_flags_are_detected() {
        let a = parse(&["--out", "x.json", "--threads", "2"]).unwrap();
        assert_eq!(a.unsupported(&[]), Some("--out"));
        assert_eq!(a.unsupported(&["--out"]), Some("--threads"));
        assert_eq!(a.unsupported(&["--out", "--threads"]), None);
        let b = parse(&["--swf", "t.swf"]).unwrap();
        assert_eq!(b.unsupported(&[]), Some("--swf"));
        assert_eq!(b.unsupported(&["--swf"]), None);
        assert_eq!(parse(&["--seed", "1"]).unwrap().unsupported(&[]), None);
    }

    #[test]
    fn help_is_distinguished_from_errors() {
        assert_eq!(parse(&["--help"]), Err(CliError::Help));
        assert_eq!(parse(&["-h"]), Err(CliError::Help));
        assert!(CliError::Help.to_string().contains("--threads"));
        assert_eq!(CliError::Bad("x".into()).to_string(), "x");
    }
}
