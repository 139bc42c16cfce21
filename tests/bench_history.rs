//! Schema check and reader for `bench-history/pr<N>.json`, the per-change
//! benchmark records. Every file holds `rows` of
//! `{workload, metric, parent, change}`; `parent` and `change` are either a
//! bare number (the one-run-per-side records `pr20.json` and `pr21.json`)
//! or the `{q1, median, q3}` quartiles of paired runs, which every record
//! from `pr38.json` on must use. Time and throughput compare only as paired
//! ratios (the same binary runs at different speeds on a shared machine),
//! so for those end-to-end metrics (the `end_to_end` names of
//! `BENCHMARK.json`) the test prints each record's
//! `change.median / parent.median` in record order and their running
//! product. `peak_rss_mb` and a record's `deterministic_counts` do not
//! depend on speed: for those it prints each record's absolute values,
//! parent → change.
//!
//! ```sh
//! cargo test --test bench_history -- --nocapture
//! ```

use sd_serve::Json;
use std::collections::BTreeMap;
use std::path::Path;

/// First record number that must carry quartiles on both sides.
const QUARTILES_FROM: u32 = 38;

/// End-to-end metrics read as absolute medians instead of a chained ratio.
const ABSOLUTE: [&str; 1] = ["peak_rss_mb"];

fn read_json(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// `(N, path)` for every `bench-history/pr<N>.json`, ascending by `N`.
fn records() -> Vec<(u32, std::path::PathBuf)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("bench-history");
    let mut out: Vec<_> = std::fs::read_dir(&dir)
        .expect("bench-history/ exists")
        .map(|e| e.expect("readable entry").path())
        .filter_map(|p| {
            let name = p.file_name()?.to_str()?;
            let n = name
                .strip_prefix("pr")?
                .strip_suffix(".json")?
                .parse()
                .ok()?;
            Some((n, p))
        })
        .collect();
    out.sort();
    out
}

/// The median of one side: the bare number, or `median` of the quartiles
/// (which must be ordered). `None` when the value has neither form.
fn median(side: &Json, quartiles_required: bool) -> Option<f64> {
    if let Some(v) = side.as_f64() {
        return (!quartiles_required).then_some(v);
    }
    let q = |k| side.get(k).and_then(Json::as_f64);
    let (q1, median, q3) = (q("q1")?, q("median")?, q("q3")?);
    (q1 <= median && median <= q3).then_some(median)
}

#[test]
fn every_record_has_the_row_schema_and_the_chain_is_printed() {
    let bench = read_json(&Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCHMARK.json"));
    let end_to_end: Vec<&str> = bench
        .get("end_to_end")
        .and_then(Json::as_arr)
        .expect("BENCHMARK.json lists its end-to-end metrics")
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).expect("metric name"))
        .collect();

    let files = records();
    assert!(!files.is_empty(), "bench-history/ holds records");
    // (workload, metric) → [(N, change/parent)], in record order.
    let mut chains: BTreeMap<(String, String), Vec<(u32, f64)>> = BTreeMap::new();
    // (workload, metric) → [(N, "parent→change")], in record order.
    let mut absolute: BTreeMap<(String, String), Vec<(u32, String)>> = BTreeMap::new();
    for (n, path) in &files {
        let file = path.display();
        let doc = read_json(path);
        let rows = doc
            .get("rows")
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("{file}: no `rows` array"));
        assert!(!rows.is_empty(), "{file}: `rows` is empty");
        let quartiles = *n >= QUARTILES_FROM;
        for (i, row) in rows.iter().enumerate() {
            let text = |k: &str| {
                row.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("{file} row {i}: no string `{k}`"))
            };
            let (workload, metric) = (text("workload"), text("metric"));
            let side = |k: &str| {
                let v = row
                    .get(k)
                    .unwrap_or_else(|| panic!("{file} row {i}: no `{k}`"));
                median(v, quartiles).unwrap_or_else(|| {
                    let want = if quartiles {
                        "{q1, median, q3}"
                    } else {
                        "a number or {q1, median, q3}"
                    };
                    panic!("{file} row {i}: `{k}` is not {want}")
                })
            };
            let (parent, change) = (side("parent"), side("change"));
            assert!(
                parent > 0.0,
                "{file} row {i}: parent median must be positive"
            );
            if !end_to_end.contains(&metric) {
                continue;
            }
            // A file may repeat a (workload, metric) for a second seed; both
            // readings follow the first row, the seed-42 panel.
            let key = (workload.to_string(), metric.to_string());
            if ABSOLUTE.contains(&metric) {
                let steps = absolute.entry(key).or_default();
                if steps.last().is_none_or(|(last, _)| last != n) {
                    steps.push((*n, format!("{parent:.1}→{change:.1}")));
                }
                continue;
            }
            let chain = chains.entry(key).or_default();
            if chain.last().is_none_or(|&(last, _)| last != *n) {
                chain.push((*n, change / parent));
            }
        }
        for (key, step) in deterministic_counts(&doc, &file.to_string()) {
            absolute.entry(key).or_default().push((*n, step));
        }
    }

    println!("change.median / parent.median per record, chained (running product), time and throughput:");
    for ((workload, metric), chain) in &chains {
        let steps: Vec<String> = chain
            .iter()
            .map(|(n, r)| format!("pr{n} {r:.3}"))
            .collect();
        let product: f64 = chain.iter().map(|(_, r)| r).product();
        println!(
            "{workload:<12} {metric:<12} ×{product:.3}  [{}]",
            steps.join(", ")
        );
    }
    println!("absolute values per record, parent→change (speed-independent):");
    for ((workload, metric), steps) in &absolute {
        let steps: Vec<String> = steps.iter().map(|(n, s)| format!("pr{n} {s}")).collect();
        println!("{workload:<12} {metric:<34} [{}]", steps.join(", "));
    }
    assert!(!chains.is_empty(), "some row reports an end-to-end metric");
    assert!(!absolute.is_empty(), "some row reports peak_rss_mb");
}

/// A record's `deterministic_counts.workloads` as ((workload, metric),
/// "parent→change") with each value as written; empty when the record has
/// none. Panics when a count lacks either side.
fn deterministic_counts(doc: &Json, file: &str) -> Vec<((String, String), String)> {
    let Some(Json::Obj(workloads)) = doc.get("deterministic_counts").and_then(|d| d.get("workloads")) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for (workload, counts) in workloads {
        let Json::Obj(counts) = counts else {
            panic!("{file}: deterministic counts of {workload} are not an object")
        };
        for (metric, v) in counts {
            let side = |k: &str| {
                v.get(k)
                    .unwrap_or_else(|| panic!("{file}: {workload}/{metric} has no `{k}`"))
                    .render()
            };
            let step = format!("{}→{}", side("parent"), side("change"));
            out.push(((workload.clone(), metric.clone()), step));
        }
    }
    out
}
