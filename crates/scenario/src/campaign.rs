//! Multi-scenario campaign files: one document naming several scenarios to
//! run back-to-back, each with its own sweep expansion and baselines. The
//! `run_scenario --campaign` path concatenates every member's campaign rows
//! into a single export (the `scenario` column keeps them apart).
//!
//! Format (same section/key grammar as scenarios):
//!
//! ```text
//! [campaign]
//! name = paper-panel
//! description = the five workloads plus the new axis sweeps
//! scenarios = [w3-ricc, backfill-depth-sweep, studies/my-local.scn]
//! ```
//!
//! Members are built-in scenario names first, file paths (relative to the
//! campaign file) second.

use crate::format::{parse_list, parse_raw, unknown_key, ParseError};
use crate::registry::find_builtin;
use crate::scenario::Scenario;
use std::path::Path;

/// A parsed campaign document (members unresolved).
#[derive(Debug, Clone, PartialEq)]
pub struct Campaign {
    pub name: String,
    pub description: String,
    /// Built-in names or scenario-file paths, in run order.
    pub scenarios: Vec<String>,
}

impl Campaign {
    /// Parses a campaign document.
    pub fn parse(text: &str) -> Result<Campaign, ParseError> {
        let doc = parse_raw(text)?;
        let sec = doc
            .section("campaign")
            .ok_or_else(|| ParseError::new(1, "missing [campaign] section"))?;
        for s in &doc.sections {
            if s.name != "campaign" {
                return Err(ParseError::new(
                    s.line,
                    format!("unknown section [{}] (campaign files hold only [campaign])", s.name),
                ));
            }
        }
        let mut name = None;
        let mut description = String::new();
        let mut scenarios = Vec::new();
        for e in &sec.entries {
            match e.key.as_str() {
                "name" => name = Some(e.value.clone()),
                "description" => description = e.value.clone(),
                "scenarios" => {
                    scenarios = parse_list(e)?;
                    if scenarios.is_empty() {
                        return Err(ParseError::new(e.line, "`scenarios` must not be empty"));
                    }
                }
                k => {
                    let known = ["name", "description", "scenarios"];
                    return Err(unknown_key(k, "campaign", &known, e.line));
                }
            }
        }
        let name = name.ok_or_else(|| ParseError::new(sec.line, "[campaign] needs a `name`"))?;
        if scenarios.is_empty() {
            return Err(ParseError::new(sec.line, "[campaign] needs `scenarios`"));
        }
        let mut seen = std::collections::BTreeSet::new();
        for s in &scenarios {
            if !seen.insert(s.clone()) {
                return Err(ParseError::new(
                    sec.line,
                    format!("scenario `{s}` listed twice"),
                ));
            }
        }
        Ok(Campaign {
            name,
            description,
            scenarios,
        })
    }

    /// Canonical text form (`parse(render(c)) == c`).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "[campaign]");
        let _ = writeln!(out, "name = {}", self.name);
        if !self.description.is_empty() {
            let _ = writeln!(out, "description = {}", self.description);
        }
        let _ = writeln!(out, "scenarios = [{}]", self.scenarios.join(", "));
        out
    }

    /// Resolves every member: built-in name first, then a scenario file
    /// relative to `base_dir` (the campaign file's directory).
    pub fn resolve(&self, base_dir: &Path) -> Result<Vec<Scenario>, String> {
        let mut out = Vec::with_capacity(self.scenarios.len());
        for member in &self.scenarios {
            if let Some(s) = find_builtin(member) {
                out.push(s);
                continue;
            }
            let path = base_dir.join(member);
            let text = std::fs::read_to_string(&path).map_err(|e| {
                format!("`{member}` is neither a built-in scenario nor readable at {path:?}: {e}")
            })?;
            let s = Scenario::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            out.push(s);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::expand;

    #[test]
    fn parses_and_roundtrips() {
        let text = "\
# panel
[campaign]
name = demo
description = two members
scenarios = [w3-ricc, bursty]
";
        let c = Campaign::parse(text).unwrap();
        assert_eq!(c.name, "demo");
        assert_eq!(c.scenarios, vec!["w3-ricc", "bursty"]);
        assert_eq!(Campaign::parse(&c.render()).unwrap(), c);
    }

    #[test]
    fn rejects_bad_documents() {
        assert!(Campaign::parse("").is_err());
        assert!(Campaign::parse("[campaign]\nname = x\n").is_err(), "no members");
        assert!(Campaign::parse("[campaign]\nname = x\nscenarios = []\n").is_err());
        assert!(
            Campaign::parse("[campaign]\nname = x\nscenarios = [a, a]\n").is_err(),
            "duplicates"
        );
        assert!(
            Campaign::parse("[campaign]\nname = x\nscenarios = [a]\n[extra]\n").is_err(),
            "stray section"
        );
        let e = Campaign::parse("[campaign]\nname = x\nscenarios = [a]\ntypo = 1\n").unwrap_err();
        assert_eq!(e.line, 4);
    }

    #[test]
    fn resolves_builtins_and_reports_unknowns() {
        let c = Campaign {
            name: "x".into(),
            description: String::new(),
            scenarios: vec!["w3-ricc".into(), "bursty".into()],
        };
        let resolved = c.resolve(Path::new(".")).unwrap();
        assert_eq!(resolved.len(), 2);
        assert_eq!(resolved[0].name, "w3-ricc");

        let bad = Campaign {
            scenarios: vec!["no-such-scenario".into()],
            ..c
        };
        let err = bad.resolve(Path::new("/nonexistent")).unwrap_err();
        assert!(err.contains("no-such-scenario"), "{err}");
    }

    #[test]
    fn shipped_campaign_file_resolves_against_the_registry() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
        let text = std::fs::read_to_string(dir.join("paper-panel.campaign"))
            .expect("scenarios/paper-panel.campaign ships with the repo");
        let c = Campaign::parse(&text).unwrap();
        let members = c.resolve(&dir).unwrap();
        assert!(members.len() >= 3, "{:?}", c.scenarios);
        // Every member expands to at least one runnable point, and the new
        // axis sweeps ride along.
        for m in &members {
            assert!(!expand(m).is_empty(), "{}", m.name);
        }
        assert!(c.scenarios.iter().any(|s| s == "backfill-depth-sweep"));
        assert!(c.scenarios.iter().any(|s| s == "arrival-contrast-sweep"));
    }
}
