//! Validate the simulator against the paper's expectations.
//!
//! ```sh
//! cargo run --release --bin sd_validate                      # scenarios/expectations.exp
//! cargo run --release --bin sd_validate -- --file my.exp
//! cargo run --release --bin sd_validate -- --list
//! cargo run --release --bin sd_validate -- --claim w3-makespan --claim w3-energy
//! ```
//!
//! Exit code 0 when every claim passes, 1 on any failure, 2 on usage or
//! file errors. The report is deterministic for a given expectation file.

use sd_bench::validate::{evaluate, parse_expectations, report};
use sd_bench::thread_cap;
use sd_scenario::cli::{self, Flag};
use sd_scenario::Vocab;

struct Cli {
    file: String,
    /// `--claim`s, in order: only these are evaluated.
    only: Vec<String>,
    list: bool,
    threads: Option<usize>,
}

const TITLE: &str = "sd_validate — check the paper's directional expectations";

/// A claim fixes its own workload, scale and seed panel, so of the flags
/// `run_scenario` takes only the thread cap applies.
const FLAGS: &[Flag<Cli>] = &[
    Flag::value("--file", "<path>", "expectation file (default: scenarios/expectations.exp)",
        |c, v| v.parse().map(|p| c.file = p)),
    Flag::value("--claim", "<name>", "only evaluate this claim (repeatable)",
        |c, v| v.parse().map(|n| c.only.push(n))),
    Flag::switch("--list", "list the claims and exit without running", |c| c.list = true),
    Flag::value("--threads", "<n>", "cap parallel run threads (default: all cores)",
        |c, v| thread_cap(v).map(|n| c.threads = Some(n))),
];

fn fail(msg: &str) -> ! {
    eprintln!("{msg}\n\n{}", cli::usage(TITLE, FLAGS));
    std::process::exit(2);
}

fn main() {
    let file = "scenarios/expectations.exp".to_string();
    let mut cli = Cli { file, only: Vec::new(), list: false, threads: None };
    cli::parse_args(TITLE, FLAGS, &mut cli, fail);
    let Cli { file, only, list, threads } = cli;

    let text = std::fs::read_to_string(&file)
        .unwrap_or_else(|e| fail(&format!("reading {file}: {e}")));
    let mut claims =
        parse_expectations(&text).unwrap_or_else(|e| fail(&format!("{file}: {e}")));
    if !only.is_empty() {
        for name in &only {
            if !claims.iter().any(|c| &c.name == name) {
                fail(&format!("no claim named `{name}` in {file}"));
            }
        }
        claims.retain(|c| only.contains(&c.name));
    }

    if list {
        for c in &claims {
            println!(
                "{:24} {:12} {:10} [{} seed{}]  {}",
                c.name,
                format!("{:?}", c.scenario.workload.source).to_lowercase(),
                c.metric.word(),
                c.seeds.len(),
                if c.seeds.len() == 1 { "" } else { "s" },
                c.source
            );
        }
        return;
    }

    let runs: usize = claims.iter().map(|c| c.seeds.len() * 2).sum();
    eprintln!(
        "validating {} claim{} (≤ {} runs before dedup) against {file}",
        claims.len(),
        if claims.len() == 1 { "" } else { "s" },
        runs
    );
    let results = evaluate(&claims, threads).unwrap_or_else(|e| fail(&e));
    println!("{}", report(&results));
    let failed: Vec<&str> = results
        .iter()
        .filter(|r| !r.pass)
        .map(|r| r.claim.name.as_str())
        .collect();
    if failed.is_empty() {
        eprintln!("all {} claims hold", results.len());
    } else {
        eprintln!("{} claim(s) FAILED: {}", failed.len(), failed.join(", "));
        std::process::exit(1);
    }
}
