//! Property tests for the scenario format: parse ∘ render is the identity
//! on valid scenarios, unknown keys are rejected with the offending line
//! number, and sweep expansion matches the declared cross-product.
//!
//! The generator walks the key table: every key of `KEYS` may be set,
//! every axis of `AXES` may be swept, so a key added to the table is in
//! these properties once `value` can spell a value for it.

use proptest::prelude::*;
use sd_scenario::{axis_key, expand, ArrivalKind, Key, PolicyKindDecl, Scenario, SourceKind, AXES, KEYS};

/// A valid value for `key`, picked by `r`. Only the synthetic sources
/// appear (and so no `path`): `real_run`/`swf` carry extra invariants that
/// are exercised by unit tests instead.
fn value(key: &Key, r: u64) -> Option<String> {
    let pick = |words: &[&str]| words[r as usize % words.len()].to_string();
    let int = |lo: u64, hi: u64| (lo + r % (hi - lo + 1)).to_string();
    let ratio = |lo: u64, hi: u64, denom: f64| ((lo + r % (hi - lo + 1)) as f64 / denom).to_string();
    Some(match (key.section, key.name) {
        ("scenario", "name") => format!("scn-{}", r % 10_000),
        ("scenario", "description") => format!("generated study #{}", r % 100),
        ("scenario", "seed") | ("tenants", "half_life") => r.to_string(),
        ("scenario", "scale") => ratio(1, 400, 100.0),
        ("cluster", "preset") => pick(&["auto", "mn4", "ricc", "curie"]),
        ("cluster", "nodes") => int(1, 3999),
        ("workload", "source") => pick(&["cirne", "cirne_ideal", "ricc", "curie"]),
        ("workload", "path") => return None,
        ("workload", "jobs") => int(1, 19_999),
        ("workload", "mean_interarrival") => ratio(1, 10_000, 10.0),
        ("workload", "arrivals") => pick(&["anl", "uniform", "day_night"]),
        ("workload", "day_night_contrast") => ratio(10, 199, 10.0),
        ("workload", "weekend_factor" | "batch_p") => ratio(0, 100, 100.0),
        ("workload", "batch_mean") => ratio(0, 300, 10.0),
        ("policy", "kind") => pick(&["static", "sd"]),
        ("policy", "maxsd") => match r % 4 {
            0 => "inf".to_string(),
            1 => "dyn".to_string(),
            2 => int(2, 99),
            _ => ratio(11, 499, 10.0),
        },
        ("policy", "model") => pick(&["ideal", "worst_case", "app_aware"]),
        ("policy", "sharing") => ratio(0, 99, 100.0),
        ("policy", "max_mates") => int(1, 5),
        ("policy", "include_free_nodes") => pick(&["true", "false"]),
        ("slurm", "backfill") => pick(&["easy", "conservative"]),
        ("slurm", "backfill_depth") => int(1, 499),
        ("slurm", "malleable_fraction") => ratio(0, 100, 100.0),
        ("slurm", "ranks_per_node") => int(1, 8),
        ("tenants", "count") => int(1, 16),
        ("tenants", "skew") => ratio(0, 30, 10.0),
        ("tenants", "quota_fraction") => ratio(1, 200, 100.0),
        ("tenants", "queue") => pick(&["fifo", "fair_share"]),
        other => panic!("no generator for {other:?}: a new key needs one here"),
    })
}

/// A valid scenario built by setting keys and sweeping axes through the
/// table, from a fixed budget of raw draws.
fn arb_scenario() -> BoxedStrategy<Scenario> {
    let draws = 2 * KEYS.len() + 4 * AXES.len();
    prop::collection::vec(any::<u64>(), draws)
        .prop_map(|draws| {
            let mut draws = draws.into_iter();
            let mut next = || draws.next().expect("the budget covers every key and axis");
            let mut s = Scenario::new("x", SourceKind::Ricc);
            for key in KEYS.iter() {
                // `[tenants]` is an optional section, its required key with it.
                let wanted = next() % 3 != 0 || (key.required && key.section != "tenants");
                if let Some(v) = value(key, next()).filter(|_| wanted) {
                    key.set(&mut s, &v, 0).expect("a generated value is valid");
                }
            }
            let day_night = s.workload.arrivals == Some(ArrivalKind::DayNight);
            if !day_night {
                s.workload.day_night_contrast = None;
            }
            for axis in AXES {
                let key = axis_key(axis).expect("every axis varies a key");
                let values: Vec<String> =
                    (0..next() % 4).map(|_| value(key, next()).expect("axes are spellable")).collect();
                // The cross-section rules a parsed sweep must satisfy.
                let applies = match axis {
                    "maxsd" => s.policy.kind == PolicyKindDecl::Sd,
                    "day_night_contrast" => day_night,
                    _ => key.section != "tenants" || s.tenants.is_some(),
                };
                if applies {
                    s.sweep.set(axis, &values, 0).expect("a generated value is valid");
                }
            }
            s
        })
        .boxed()
}

proptest! {
    #[test]
    fn parse_render_roundtrips(s in arb_scenario()) {
        let text = s.render();
        let back = match Scenario::parse(&text) {
            Ok(b) => b,
            Err(e) => {
                return Err(TestCaseError::fail(format!("render not parseable: {e}\n{text}")))
            }
        };
        prop_assert_eq!(&back, &s, "roundtrip mismatch for:\n{}", text);
        // Render is canonical: a second render is byte-identical.
        prop_assert_eq!(back.render(), text);
    }

    #[test]
    fn unknown_keys_rejected_with_their_line(s in arb_scenario()) {
        let mut text = s.render();
        let expected_line = text.lines().count() + 1;
        text.push_str("zz_unknown_knob = 1\n");
        let err = match Scenario::parse(&text) {
            Err(e) => e,
            Ok(_) => return Err(TestCaseError::fail("unknown key accepted")),
        };
        prop_assert_eq!(err.line, expected_line, "error: {}", err);
        prop_assert!(err.msg.contains("zz_unknown_knob"), "error: {}", err);
    }

    #[test]
    fn expansion_matches_declared_cross_product(s in arb_scenario()) {
        let points = expand(&s);
        prop_assert_eq!(points.len(), s.sweep.run_count());
        for p in &points {
            prop_assert!(p.scenario.sweep.is_empty());
            // One `axis=value` per swept axis, and the point holds that value.
            let labels: Vec<&str> = p.variant.split(' ').filter(|l| !l.is_empty()).collect();
            prop_assert_eq!(labels.len(), s.sweep.axes().len());
            for (label, (axis, values)) in labels.iter().zip(s.sweep.axes()) {
                let (name, value) = label.split_once('=').expect("axis=value");
                prop_assert_eq!(name, *axis);
                prop_assert!(values.iter().any(|v| v == value), "{}", label);
                let key = axis_key(axis).expect("every axis varies a key");
                let mut applied = p.scenario.clone();
                key.set(&mut applied, value, 0).expect("a swept value is valid");
                prop_assert_eq!(&applied, &p.scenario, "{} is not what the point holds", label);
            }
        }
        if s.sweep.is_empty() {
            prop_assert_eq!(points.len(), 1);
            prop_assert_eq!(&points[0].variant, "");
        }
    }
}
