//! Built-in scenarios: every `.scn` file under `scenarios/` at the
//! repository root, compiled into the library. The text files are the
//! single source — the paper's five workloads and each of its figures and
//! tables, the ablation study, and the studies beyond the paper (bursty
//! campaigns, diurnal load, mixed static/malleable populations, an
//! oversubscribed machine, tenant mixes). Shipping a new one is adding the
//! file and its name below; a test fails on a file that is not listed.

use crate::scenario::Scenario;

macro_rules! shipped {
    ($($name:literal),* $(,)?) => {
        [$(($name, include_str!(concat!("../../../scenarios/", $name, ".scn")))),*]
    };
}

/// The shipped scenario files as `(name, text)`, in presentation order.
const FILES: [(&str, &str); 28] = shipped![
    "w1-cirne",
    "w2-cirne-ideal",
    "w3-ricc",
    "w4-curie",
    "w5-realrun",
    "maxsd-sweep-w1",
    "maxsd-sweep",
    "maxsd-sweep-w3",
    "maxsd-sweep-w4",
    "w4-maxsd10",
    "w1-worst-case",
    "w2-worst-case",
    "w3-worst-case",
    "w4-worst-case",
    "ablation-max-mates-1",
    "ablation-max-mates-3",
    "ablation-free-nodes",
    "ablation-sharing-sweep",
    "ablation-backfill-conservative",
    "ablation-backfill-easy",
    "malleable-fraction-sweep",
    "swf-replay",
    "bursty",
    "diurnal",
    "oversubscribed",
    "backfill-depth-sweep",
    "arrival-contrast-sweep",
    "tenant-mix-sweep",
];

/// All built-in scenarios, in presentation order.
pub fn builtin_scenarios() -> Vec<Scenario> {
    FILES.iter().map(|(_, text)| parse_shipped(text)).collect()
}

/// Looks up a built-in scenario by name (a file is named after its scenario).
pub fn find_builtin(name: &str) -> Option<Scenario> {
    let (_, text) = FILES.iter().find(|(file, _)| *file == name)?;
    Some(parse_shipped(text))
}

fn parse_shipped(text: &str) -> Scenario {
    Scenario::parse(text).expect("a shipped scenario file parses")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Campaign;
    use crate::compile::{execute, expand};

    #[test]
    fn at_least_eight_unique_named_scenarios() {
        let all = builtin_scenarios();
        assert!(all.len() >= 8, "{} scenarios", all.len());
        let mut names: Vec<&str> = all.iter().map(|s| s.name.as_str()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), all.len(), "names are unique");
        assert!(all.iter().all(|s| !s.description.is_empty()));
    }

    #[test]
    fn every_builtin_renders_and_roundtrips() {
        for s in builtin_scenarios() {
            let text = s.render();
            let back = Scenario::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", s.name));
            assert_eq!(back, s, "{}", s.name);
            assert!(!expand(&s).is_empty(), "{}", s.name);
        }
    }

    #[test]
    fn shipped_scenario_files_match_the_registry() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
        let mut paths: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        paths.sort();
        let mut scn = 0;
        for path in &paths {
            let text = std::fs::read_to_string(path).unwrap();
            let stem = path.file_stem().unwrap().to_str().unwrap();
            match path.extension().and_then(|x| x.to_str()) {
                Some("scn") => {
                    scn += 1;
                    let s = Scenario::parse(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"));
                    assert_eq!(s.name, stem, "{path:?} is named after its scenario");
                    assert!(FILES.contains(&(stem, text.as_str())), "{path:?} is not registered");
                }
                Some("campaign") => {
                    let c = Campaign::parse(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"));
                    assert_eq!(c.name, stem, "{path:?} is named after its campaign");
                    let members = c.resolve(&dir).unwrap_or_else(|e| panic!("{path:?}: {e}"));
                    assert!(members.iter().all(|m| !expand(m).is_empty()), "{path:?}");
                }
                // Expectation files belong to `sd_validate`, which parses
                // the shipped ones in its own tests.
                Some("exp") => {}
                _ => panic!("{path:?}: not a .scn, .campaign or .exp file"),
            }
        }
        assert_eq!(
            scn,
            FILES.len(),
            "a registered file is missing from scenarios/"
        );
    }

    #[test]
    fn find_builtin_works() {
        assert!(find_builtin("bursty").is_some());
        assert!(find_builtin("nope").is_none());
    }

    #[test]
    fn bursty_is_outside_the_paper_figures_envelope() {
        // The paper's figures always run malleable_fraction = 1.0 and the
        // generators' own batching. `bursty` overrides both at once.
        let mut s = find_builtin("bursty").unwrap();
        assert!(s.slurm.malleable_fraction < 1.0);
        assert!(s.workload.batch_p.is_some());
        s.scale = Some(0.02);
        let out = execute(&expand(&s)[0]).unwrap();
        assert!(out.result.outcomes.len() >= 300);
        assert_eq!(out.result.leftover_pending, 0);
    }

    #[test]
    fn fraction_sweep_expands_to_five_runs() {
        let s = find_builtin("malleable-fraction-sweep").unwrap();
        let pts = expand(&s);
        assert_eq!(pts.len(), 5);
        assert!(pts
            .iter()
            .all(|p| p.variant.starts_with("malleable_fraction=")));
    }
}
