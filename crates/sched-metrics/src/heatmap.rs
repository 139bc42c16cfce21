//! Job-category heatmaps (paper Figs. 4–6).
//!
//! The paper partitions Workload 4's jobs "in categories depending on the
//! requested resources and runtime" and reports, per cell, the **ratio
//! between static backfill and SD-Policy** for slowdown (Fig. 4), runtime
//! (Fig. 5) and wait time (Fig. 6) — values > 1 mean SD-Policy improved the
//! category.

use crate::histogram::le_bucket;
use simkit::Mean;
use slurm_sim::JobOutcome;

/// Bucketing specification: node-count and runtime class edges.
#[derive(Debug, Clone)]
pub struct HeatmapSpec {
    /// Upper bounds (inclusive) of node buckets; a final open bucket catches
    /// the rest. E.g. `[1, 2, 4, …]`.
    pub(crate) node_edges: Vec<u32>,
    /// Upper bounds (inclusive) of runtime classes in seconds.
    pub(crate) runtime_edges: Vec<u64>,
}

impl HeatmapSpec {
    /// The paper-style categories: power-of-two nodes up to `max_nodes`,
    /// runtime classes 1 h / 4 h / 12 h / 1 d / beyond.
    pub fn paper_style(max_nodes: u32) -> HeatmapSpec {
        let mut node_edges = Vec::new();
        let mut n = 1u32;
        while n < max_nodes {
            node_edges.push(n);
            n *= 2;
        }
        node_edges.push(max_nodes);
        HeatmapSpec {
            node_edges,
            runtime_edges: vec![3_600, 4 * 3_600, 12 * 3_600, 24 * 3_600],
        }
    }

    pub fn node_buckets(&self) -> usize {
        self.node_edges.len() + 1
    }

    pub fn runtime_buckets(&self) -> usize {
        self.runtime_edges.len() + 1
    }

    pub fn node_bucket(&self, nodes: u32) -> usize {
        le_bucket(&self.node_edges, nodes)
    }

    pub(crate) fn runtime_bucket(&self, runtime: u64) -> usize {
        le_bucket(&self.runtime_edges, runtime)
    }

    /// Label of node bucket `i`, e.g. `"3-4"` or `">64"`.
    pub fn node_label(&self, i: usize) -> String {
        if i == 0 {
            format!("<={}", self.node_edges[0])
        } else if i < self.node_edges.len() {
            format!("{}-{}", self.node_edges[i - 1] + 1, self.node_edges[i])
        } else {
            format!(">{}", self.node_edges.last().unwrap())
        }
    }

    /// Label of runtime bucket `i`, e.g. `"<=1h"`.
    pub fn runtime_label(&self, i: usize) -> String {
        let fmt = |s: u64| {
            if s >= 86_400 {
                format!("{}d", s / 86_400)
            } else {
                format!("{}h", s / 3_600)
            }
        };
        if i == 0 {
            format!("<={}", fmt(self.runtime_edges[0]))
        } else if i < self.runtime_edges.len() {
            format!(
                "{}-{}",
                fmt(self.runtime_edges[i - 1]),
                fmt(self.runtime_edges[i])
            )
        } else {
            format!(">{}", fmt(*self.runtime_edges.last().unwrap()))
        }
    }
}

/// Which per-job metric a heatmap aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeatMetric {
    Slowdown,
    Runtime,
    WaitTime,
}

impl HeatMetric {
    /// The three metrics, in figure order (Fig. 4, 5, 6).
    pub const ALL: [HeatMetric; 3] = [HeatMetric::Slowdown, HeatMetric::Runtime, HeatMetric::WaitTime];

    pub fn label(self) -> &'static str {
        match self {
            HeatMetric::Slowdown => "slowdown",
            HeatMetric::Runtime => "runtime",
            HeatMetric::WaitTime => "wait",
        }
    }

    fn of(self, o: &JobOutcome) -> f64 {
        match self {
            HeatMetric::Slowdown => o.slowdown(),
            HeatMetric::Runtime => o.runtime() as f64,
            HeatMetric::WaitTime => o.wait() as f64,
        }
    }
}

/// Mean of one metric per (runtime class × node bucket) cell.
#[derive(Debug, Clone)]
pub struct Heatmap {
    pub spec: HeatmapSpec,
    pub metric: HeatMetric,
    cells: Vec<Mean>, // row-major: runtime bucket × node bucket
}

impl Heatmap {
    pub fn new(spec: HeatmapSpec, metric: HeatMetric) -> Heatmap {
        let cells = vec![Mean::default(); spec.node_buckets() * spec.runtime_buckets()];
        Heatmap {
            spec,
            metric,
            cells,
        }
    }

    pub fn build(spec: HeatmapSpec, metric: HeatMetric, outcomes: &[JobOutcome]) -> Heatmap {
        let mut h = Heatmap::new(spec, metric);
        for o in outcomes {
            h.add(o);
        }
        h
    }

    pub fn add(&mut self, o: &JobOutcome) {
        // Bucket by the *requested* shape (category identity must match
        // across policies even when SD stretches the actual runtime).
        let r = self.spec.runtime_bucket(o.static_runtime);
        let n = self.spec.node_bucket(o.nodes);
        let idx = r * self.spec.node_buckets() + n;
        self.cells[idx].add(self.metric.of(o));
    }

    pub fn cell(&self, runtime_bucket: usize, node_bucket: usize) -> &Mean {
        &self.cells[runtime_bucket * self.spec.node_buckets() + node_bucket]
    }

    pub fn cell_count(&self, runtime_bucket: usize, node_bucket: usize) -> u64 {
        self.cell(runtime_bucket, node_bucket).count()
    }
}

/// Ratio of two heatmaps (baseline / variant): the paper's Figs. 4–6 with
/// baseline = static backfill and variant = SD-Policy. Ratio > 1 ⇒ the
/// variant improved that category.
#[derive(Debug, Clone)]
pub struct RatioHeatmap {
    pub spec: HeatmapSpec,
    pub metric: HeatMetric,
    pub ratios: Vec<Option<f64>>, // row-major; None = empty cell
    pub counts: Vec<u64>,
}

impl RatioHeatmap {
    pub fn compute(baseline: &Heatmap, variant: &Heatmap) -> RatioHeatmap {
        assert_eq!(baseline.spec.node_buckets(), variant.spec.node_buckets());
        assert_eq!(
            baseline.spec.runtime_buckets(),
            variant.spec.runtime_buckets()
        );
        assert_eq!(baseline.metric, variant.metric);
        let nb = baseline.spec.node_buckets();
        let rb = baseline.spec.runtime_buckets();
        let mut ratios = Vec::with_capacity(nb * rb);
        let mut counts = Vec::with_capacity(nb * rb);
        for r in 0..rb {
            for n in 0..nb {
                let b = baseline.cell(r, n);
                let v = variant.cell(r, n);
                counts.push(b.count().min(v.count()));
                if b.count() == 0 || v.count() == 0 || v.mean() <= 0.0 {
                    ratios.push(None);
                } else {
                    ratios.push(Some(b.mean() / v.mean()));
                }
            }
        }
        RatioHeatmap {
            spec: baseline.spec.clone(),
            metric: baseline.metric,
            ratios,
            counts,
        }
    }

    pub fn ratio(&self, runtime_bucket: usize, node_bucket: usize) -> Option<f64> {
        self.ratios[runtime_bucket * self.spec.node_buckets() + node_bucket]
    }

    /// Renders the heatmap as an aligned text grid (rows = runtime classes).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let nb = self.spec.node_buckets();
        let rb = self.spec.runtime_buckets();
        out.push_str(&format!("{:>12}", "runtime\\nodes"));
        for n in 0..nb {
            out.push_str(&format!("{:>10}", self.spec.node_label(n)));
        }
        out.push('\n');
        for r in 0..rb {
            out.push_str(&format!("{:>12}", self.spec.runtime_label(r)));
            for n in 0..nb {
                match self.ratio(r, n) {
                    Some(x) => out.push_str(&format!("{x:>10.2}")),
                    None => out.push_str(&format!("{:>10}", "-")),
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::JobId;
    use simkit::SimTime;

    fn outcome(nodes: u32, static_rt: u64, wait: u64, stretch: u64) -> JobOutcome {
        JobOutcome {
            id: JobId(1),
            submit: SimTime(0),
            start: SimTime(wait),
            end: SimTime(wait + static_rt + stretch),
            nodes,
            procs: nodes as u64 * 16,
            req_time: static_rt,
            static_runtime: static_rt,
            malleable_backfilled: false,
            was_mate: false,
            app: None,
            tenant: 0,
        }
    }

    #[test]
    fn paper_spec_buckets() {
        let spec = HeatmapSpec::paper_style(1024);
        assert_eq!(spec.node_bucket(1), 0);
        assert_eq!(spec.node_bucket(2), 1);
        assert_eq!(spec.node_bucket(3), 2);
        assert_eq!(spec.node_bucket(1024), spec.node_edges.len() - 1);
        assert_eq!(spec.node_bucket(5000), spec.node_edges.len());
        assert_eq!(spec.runtime_bucket(100), 0);
        assert_eq!(spec.runtime_bucket(3_600), 0);
        assert_eq!(spec.runtime_bucket(3_601), 1);
        assert_eq!(spec.runtime_bucket(90_000), 4);
    }

    #[test]
    fn labels_are_readable() {
        let spec = HeatmapSpec::paper_style(8);
        assert_eq!(spec.node_label(0), "<=1");
        assert_eq!(spec.node_label(1), "2-2");
        assert_eq!(spec.node_label(4), ">8");
        assert_eq!(spec.runtime_label(0), "<=1h");
        assert_eq!(spec.runtime_label(3), "12h-1d");
        assert_eq!(spec.runtime_label(4), ">1d");
    }

    #[test]
    fn cells_accumulate_means() {
        let spec = HeatmapSpec::paper_style(8);
        let mut h = Heatmap::new(spec, HeatMetric::Slowdown);
        h.add(&outcome(1, 100, 100, 0)); // slowdown 2
        h.add(&outcome(1, 100, 300, 0)); // slowdown 4
        assert_eq!(h.cell_count(0, 0), 2);
        assert!((h.cell(0, 0).mean() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn ratio_heatmap_divides_cellwise() {
        let spec = HeatmapSpec::paper_style(8);
        let mut stat = Heatmap::new(spec.clone(), HeatMetric::WaitTime);
        let mut sd = Heatmap::new(spec, HeatMetric::WaitTime);
        stat.add(&outcome(2, 100, 400, 0));
        sd.add(&outcome(2, 100, 100, 0));
        let ratio = RatioHeatmap::compute(&stat, &sd);
        assert!((ratio.ratio(0, 1).unwrap() - 4.0).abs() < 1e-9);
        assert_eq!(ratio.ratio(0, 0), None, "empty cells are None");
    }

    #[test]
    fn render_contains_labels_and_values() {
        let spec = HeatmapSpec::paper_style(4);
        let mut stat = Heatmap::new(spec.clone(), HeatMetric::Slowdown);
        let mut sd = Heatmap::new(spec, HeatMetric::Slowdown);
        stat.add(&outcome(1, 100, 100, 0));
        sd.add(&outcome(1, 100, 0, 0));
        let r = RatioHeatmap::compute(&stat, &sd);
        let text = r.render();
        assert!(text.contains("<=1"));
        assert!(text.contains("2.00"), "{text}");
    }

    #[test]
    fn category_identity_uses_static_runtime() {
        // An SD-stretched job must land in the same runtime class as its
        // static twin.
        let spec = HeatmapSpec::paper_style(8);
        let mut h = Heatmap::new(spec, HeatMetric::Runtime);
        h.add(&outcome(1, 3_000, 0, 2_000)); // actual runtime 5000 > 1 h
        assert_eq!(h.cell_count(0, 0), 1, "bucketed by static runtime");
    }
}
