//! SWF trace tooling: generate a synthetic trace, write it in Standard
//! Workload Format, parse it back, clean it, and print archive-style
//! statistics. The same pipeline accepts genuine Parallel Workloads Archive
//! files (pass a path as the first argument).
//!
//! ```sh
//! cargo run --release --example trace_analysis [trace.swf]
//! ```

use sd_sched::prelude::*;
use swf::TraceStats;

fn main() {
    let arg = std::env::args().nth(1);
    let mut trace = match &arg {
        Some(path) => {
            let (trace, skipped) =
                swf::parse_file(std::path::Path::new(path)).expect("readable SWF file");
            println!("parsed {} ({} malformed lines skipped)", path, skipped);
            trace
        }
        None => {
            // No file given: generate a RICC-like trace and round-trip it
            // through the SWF text format to prove fidelity.
            let generated = PaperWorkload::W3Ricc.generate(7, 0.1);
            let text = swf::write_string(&generated);
            println!(
                "generated {} jobs, serialised to {} KiB of SWF",
                generated.len(),
                text.len() / 1024
            );
            let parsed = swf::parse_str(&text).expect("own output parses");
            assert_eq!(parsed.jobs, generated.jobs, "write→parse is lossless");
            parsed
        }
    };

    let stats = TraceStats::compute(&trace);
    println!("\n== raw trace ==");
    print_stats(&stats);

    // The cleaning the paper applies to CEA-Curie: primary partition only,
    // unusable records dropped, estimates sanitised, rebased to t=0.
    swf::filter::clean_like_curie(&mut trace, 4 * 86_400);
    let cleaned = TraceStats::compute(&trace);
    println!("\n== after clean_like_curie ==");
    print_stats(&cleaned);

    // Per-size histogram (powers of two), like the archive's summary pages.
    // Buckets are `le`, as everywhere in this repo: a job of exactly 2^k
    // procs counts under the bound 2^k, so bucket i holds (2^(i-1), 2^i].
    let mut hist = sched_metrics::Histogram::new((0..12).map(|i| (1u64 << i) as f64).collect());
    for j in &trace.jobs {
        if let Some(p) = j.procs() {
            hist.observe(p as f64);
        }
    }
    println!("\njob-size histogram (procs, power-of-two upper bounds):");
    for (i, count) in hist.counts().iter().enumerate() {
        if *count > 0 {
            let label = match hist.bounds().get(i) {
                Some(b) => format!("<={b}"),
                None => format!(">{}", 1u64 << 11),
            };
            println!("  {label:>6}: {count}");
        }
    }
}

fn print_stats(s: &TraceStats) {
    println!("  jobs:            {} ({} simulatable)", s.jobs, s.simulatable);
    println!("  max procs:       {}", s.max_procs_requested);
    println!("  mean runtime:    {:.0} s", s.mean_runtime);
    println!("  mean procs:      {:.1}", s.mean_procs);
    println!("  mean response:   {:.0} s", s.mean_response);
    println!("  mean slowdown:   {:.1}", s.mean_slowdown);
    println!("  makespan:        {} s", s.makespan);
    println!("  core-seconds:    {:.3e}", s.total_core_seconds);
}
