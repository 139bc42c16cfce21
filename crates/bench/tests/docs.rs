//! DESIGN.md names every key of the scenario and expectation formats and
//! the simulator's indexed structures; these tests keep what it names equal
//! to what the parsers' tables and the sources hold, and keep the two long
//! documents from growing.

use sd_bench::validate::{CLAIM_KEYS, DEFAULTS_KEYS, SCENARIO_KEYS};
use sd_scenario::{AXES, KEYS};

const DESIGN: &str = include_str!("../../../DESIGN.md");
const README: &str = include_str!("../../../README.md");

/// The `` `words` `` of a stretch of DESIGN.md, parenthesised asides (where
/// vocabularies and defaults are spelled) left out.
fn named(text: &str) -> Vec<String> {
    let mut depth = 0;
    let mut outside = String::new();
    for c in text.chars() {
        depth += i32::from(c == '(');
        if depth == 0 {
            outside.push(c);
        }
        depth -= i32::from(c == ')');
    }
    outside.split('`').skip(1).step_by(2).map(str::to_string).collect()
}

/// The `(first cell, second cell)` of each body row of the table under `header`.
fn table(header: &str) -> Vec<(&'static str, &'static str)> {
    let body = DESIGN.split(header).nth(1).unwrap_or_else(|| panic!("no `{header}` table"));
    let rows = body.lines().skip(2).take_while(|l| l.starts_with('|'));
    rows.map(|l| l.trim_matches(|c| c == '|' || c == ' ').split_once(" | ").expect("two cells")).collect()
}

#[test]
fn section_7_names_every_scenario_key_and_axis() {
    let mut sections = Vec::new();
    for (section, keys) in table("| Section | Keys |") {
        let section = section.trim_matches(|c| "`[]".contains(c));
        let want: Vec<&str> = match section {
            "slo" => sd_obs::KNOWN_KEYS.to_vec(),
            // The axes are listed in the order they expand in.
            "sweep" => AXES.to_vec(),
            _ => KEYS.iter().filter(|k| k.section == section).map(|k| k.name).collect(),
        };
        let mut got = named(keys);
        if section == "slo" {
            got.sort();
        }
        assert_eq!(got, want, "[{section}]");
        sections.push(section);
    }
    let mut want: Vec<&str> = KEYS.iter().map(|k| k.section).collect();
    want.dedup();
    want.extend(["slo", "sweep"]);
    assert_eq!(sections, want);
}

#[test]
fn section_8_names_every_claim_key() {
    let rows = table("| Key | Meaning |");
    let mut got: Vec<String> = rows.iter().flat_map(|(keys, _)| named(keys)).collect();
    let mut want: Vec<&str> = CLAIM_KEYS.into_iter().chain(SCENARIO_KEYS.map(|(a, _, _)| a)).collect();
    got.sort();
    want.sort();
    assert_eq!(got, want);
    let defaults = DESIGN.split("A `[defaults]` section supplies").nth(1).expect("the sentence");
    let defaults = defaults.split("for\nclaims").next().expect("its end");
    assert_eq!(named(defaults), DEFAULTS_KEYS);
}

/// Every identifier in the `.rs` files under `dir`, recursively.
fn identifiers(dir: &std::path::Path, out: &mut std::collections::BTreeSet<String>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("readable entry").path();
        if path.is_dir() {
            identifiers(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).expect("utf-8 source");
            let words = text.split(|c: char| !(c.is_alphanumeric() || c == '_'));
            out.extend(words.filter(|w| !w.is_empty()).map(str::to_string));
        }
    }
}

#[test]
fn section_9_indexes_name_structures_that_exist() {
    let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut known = std::collections::BTreeSet::new();
    for krate in ["slurm-sim", "cluster", "drom"] {
        identifiers(&crates.join(krate).join("src"), &mut known);
    }
    let rows = table("| structure | invariant |");
    assert!(rows.len() >= 5, "the index table has rows");
    for (structure, _) in rows {
        for name in named(structure) {
            for ident in name.split(|c: char| !(c.is_alphanumeric() || c == '_')) {
                let missing = !ident.is_empty() && !known.contains(ident);
                assert!(!missing, "DESIGN.md §9 names `{name}`: no `{ident}` in the sources");
            }
        }
    }
}

#[test]
fn readme_and_design_do_not_grow() {
    for (doc, text, budget) in [("README.md", README, 400), ("DESIGN.md", DESIGN, 1384)] {
        let lines = text.lines().count();
        assert!(lines <= budget, "{doc} has {lines} lines, budget {budget}");
    }
}
