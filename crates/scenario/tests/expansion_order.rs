//! The order in which `expand` walks a sweep's cross-product — which is
//! neither the file's order nor the render order — pinned to what the
//! ten-deep loop nest produced at `0e3432f`: campaign row order, the
//! label pins in `tests/paper_figures.rs` and CI's `cmp` all ride on it.
//! Labels carry the parsed value, never the file's token (`0.50` is
//! `0.5`, `1e1` is `10`).

use sd_scenario::{expand, Scenario};

/// Every axis, two values each, listed in an order that is neither the
/// expansion order nor alphabetical.
const ALL_TEN_AXES: &str = "\
[scenario]
name = all-axes

[workload]
source = ricc
arrivals = day_night

[tenants]
count = 2

[sweep]
quota_fraction = [0.50, 1]
maxsd = [1e1, dyn]
tenant_skew = [0, 1.5]
seed = [1, 2]
day_night_contrast = [2, 4.0]
malleable_fraction = [0.50, 1]
tenant_count = [2, 4]
scale = [0.02, 0.04]
backfill_depth = [50, 100]
sharing = [0.25, 0.5]
";

fn fnv1a(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn all_ten_axes_expand_in_the_order_the_loop_nest_did() {
    let points = expand(&Scenario::parse(ALL_TEN_AXES).expect("valid scenario"));
    assert_eq!(points.len(), 1024);
    let labels: Vec<&str> = points.iter().map(|p| p.variant.as_str()).collect();
    let head = "seed=1 scale=0.02 sharing=0.25 malleable_fraction=0.5 maxsd=10 backfill_depth=50 \
                day_night_contrast=2 tenant_count=2 ";
    assert_eq!(labels[0], format!("{head}tenant_skew=0 quota_fraction=0.5"));
    assert_eq!(labels[1], format!("{head}tenant_skew=0 quota_fraction=1"));
    assert_eq!(labels[2], format!("{head}tenant_skew=1.5 quota_fraction=0.5"));
    let tail = "seed=2 scale=0.04 sharing=0.5 malleable_fraction=1 maxsd=dyn backfill_depth=100 \
                day_night_contrast=4 tenant_count=4 ";
    assert_eq!(labels[1021], format!("{tail}tenant_skew=0 quota_fraction=1"));
    assert_eq!(labels[1022], format!("{tail}tenant_skew=1.5 quota_fraction=0.5"));
    assert_eq!(labels[1023], format!("{tail}tenant_skew=1.5 quota_fraction=1"));
    assert_eq!(fnv1a(&labels.join("\n")), 0x2758_1e7d_0b77_4a2d);
    // The labels are what the points were built from.
    let last = &points[1023].scenario;
    let t = last.tenants.as_ref().expect("tenanted");
    assert_eq!((last.seed, last.scale, t.count, t.skew), (2, Some(0.04), 4, 1.5));
    assert!(points.iter().all(|p| p.scenario.sweep.is_empty()));
}
