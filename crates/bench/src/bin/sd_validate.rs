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
use sd_bench::{CliArgs, CliError};
use sd_scenario::Vocab;

const USAGE: &str = "sd_validate — check the paper's directional expectations

  --file <path>     expectation file (default: scenarios/expectations.exp)
  --claim <name>    only evaluate this claim (repeatable)
  --list            list the claims and exit without running
  --threads <n>     cap parallel run threads (default: all cores)
  --help, -h        show this help";

/// The common flags this binary honours: a claim fixes its own workload,
/// scale and seed panel, so only the thread cap applies.
const COMMON: [&str; 1] = ["--threads"];

fn fail(msg: &str) -> ! {
    eprintln!("{msg}\n\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut file = "scenarios/expectations.exp".to_string();
    let mut only: Vec<String> = Vec::new();
    let mut list = false;
    let mut rest = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--file" => match it.next() {
                Some(v) => file = v,
                None => fail("--file needs a path"),
            },
            "--claim" => match it.next() {
                Some(v) => only.push(v),
                None => fail("--claim needs a name"),
            },
            "--list" => list = true,
            _ => rest.push(a),
        }
    }
    let common = match CliArgs::parse(rest, &COMMON) {
        Ok(c) => c,
        Err(CliError::Help) => {
            println!("{USAGE}");
            std::process::exit(0);
        }
        Err(CliError::Bad(msg)) => fail(&msg),
    };

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
    let results = evaluate(&claims, common.threads).unwrap_or_else(|e| fail(&e));
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
