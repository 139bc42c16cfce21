//! Property tests for the scenario format: parse ∘ render is the identity
//! on valid scenarios, unknown keys are rejected with the offending line
//! number, and sweep expansion matches the declared cross-product.

use proptest::prelude::*;
use sd_scenario::{
    expand, ArrivalKind, BackfillDecl, ClusterPreset, MaxSdDecl, ModelDecl, PolicyKindDecl,
    Scenario, SourceKind,
};

fn arb_source() -> BoxedStrategy<SourceKind> {
    prop_oneof![
        Just(SourceKind::Cirne),
        Just(SourceKind::CirneIdeal),
        Just(SourceKind::Ricc),
        Just(SourceKind::Curie),
    ]
    .boxed()
}

fn arb_maxsd() -> BoxedStrategy<MaxSdDecl> {
    prop_oneof![
        (2u32..100).prop_map(|v| MaxSdDecl::Value(v as f64)),
        (11u32..500).prop_map(|v| MaxSdDecl::Value(v as f64 / 10.0)),
        Just(MaxSdDecl::Infinite),
        Just(MaxSdDecl::Dyn),
    ]
    .boxed()
}

fn arb_opt_f64(lo: u32, hi: u32, denom: f64) -> BoxedStrategy<Option<f64>> {
    prop_oneof![
        Just(None),
        (lo..=hi).prop_map(move |v| Some(v as f64 / denom)),
    ]
    .boxed()
}

/// A valid scenario assembled from independently drawn parts. Only the
/// synthetic sources appear: `real_run`/`swf` carry extra invariants that
/// are exercised by unit tests instead.
fn arb_scenario() -> BoxedStrategy<Scenario> {
    let meta = (
        0u32..10_000,
        prop_oneof![
            Just(String::new()),
            (0u32..100).prop_map(|i| format!("generated study #{i}")),
        ],
        any::<u64>(),
        arb_opt_f64(1, 400, 100.0),
        arb_source(),
    );
    let cluster = (
        prop_oneof![
            Just(ClusterPreset::Auto),
            Just(ClusterPreset::Mn4),
            Just(ClusterPreset::Ricc),
            Just(ClusterPreset::Curie),
        ],
        prop_oneof![Just(None), (1u32..4000).prop_map(Some)],
    );
    let workload = (
        prop_oneof![Just(None), (1usize..20_000).prop_map(Some)],
        arb_opt_f64(1, 10_000, 10.0), // mean_interarrival
        prop_oneof![
            Just(None),
            Just(Some(ArrivalKind::Anl)),
            Just(Some(ArrivalKind::Uniform)),
            Just(Some(ArrivalKind::DayNight)),
        ],
        (10u32..200).prop_map(|v| v as f64 / 10.0), // contrast ≥ 1
        arb_opt_f64(0, 100, 100.0),                 // weekend_factor
        arb_opt_f64(0, 100, 100.0),                 // batch_p
        arb_opt_f64(0, 300, 10.0),                  // batch_mean
    );
    let policy = (
        any::<bool>(),
        arb_maxsd(),
        prop_oneof![
            Just(ModelDecl::Ideal),
            Just(ModelDecl::WorstCase),
            Just(ModelDecl::AppAware),
        ],
        (0u32..100).prop_map(|v| v as f64 / 100.0), // sharing in [0, 1)
        1usize..6,                                  // max_mates ≥ 1
        any::<bool>(),                              // include_free_nodes
    );
    let slurm = (
        prop_oneof![
            Just(None),
            Just(Some(BackfillDecl::Easy)),
            Just(Some(BackfillDecl::Conservative)),
        ],
        prop_oneof![Just(None), (1usize..500).prop_map(Some)],
        (0u32..=100).prop_map(|v| v as f64 / 100.0), // malleable_fraction
        prop_oneof![Just(None), (1u32..9).prop_map(Some)],
    );
    let sweep = (
        prop::collection::vec((0u32..=100).prop_map(|v| v as f64 / 100.0), 0..4),
        prop::collection::vec(arb_maxsd(), 0..4),
        prop::collection::vec(any::<u64>(), 0..3),
        prop::collection::vec((1u32..400).prop_map(|v| v as f64 / 100.0), 0..3),
        prop::collection::vec((0u32..100).prop_map(|v| v as f64 / 100.0), 0..3),
    );
    (meta, cluster, workload, policy, slurm, sweep)
        .prop_map(|(meta, cluster, workload, policy, slurm, sweep)| {
            let (name_i, description, seed, scale, source) = meta;
            let mut s = Scenario::new(&format!("scn-{name_i}"), source);
            s.description = description;
            s.seed = seed;
            s.scale = scale;
            (s.cluster.preset, s.cluster.nodes) = cluster;
            let (jobs, mean, arrivals, contrast, weekend, batch_p, batch_mean) = workload;
            s.workload.jobs = jobs;
            s.workload.mean_interarrival = mean;
            s.workload.arrivals = arrivals;
            if arrivals == Some(ArrivalKind::DayNight) {
                s.workload.day_night_contrast = Some(contrast);
            }
            s.workload.weekend_factor = weekend;
            s.workload.batch_p = batch_p;
            s.workload.batch_mean = batch_mean;
            let (is_static, maxsd, model, sharing, max_mates, include_free_nodes) = policy;
            s.policy.kind = if is_static {
                PolicyKindDecl::Static
            } else {
                PolicyKindDecl::Sd
            };
            s.policy.maxsd = maxsd;
            s.policy.model = model;
            s.policy.sharing = sharing;
            s.policy.max_mates = max_mates;
            s.policy.include_free_nodes = include_free_nodes;
            (
                s.slurm.backfill,
                s.slurm.backfill_depth,
                s.slurm.malleable_fraction,
                s.slurm.ranks_per_node,
            ) = slurm;
            (
                s.sweep.malleable_fraction,
                s.sweep.maxsd,
                s.sweep.seed,
                s.sweep.scale,
                s.sweep.sharing,
            ) = sweep;
            if s.policy.kind == PolicyKindDecl::Static {
                // A maxsd sweep requires the SD policy (validated at parse).
                s.sweep.maxsd.clear();
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
        }
        if s.sweep.is_empty() {
            prop_assert_eq!(points.len(), 1);
            prop_assert_eq!(&points[0].variant, "");
        }
    }
}
