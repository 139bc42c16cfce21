//! What one `sdbench run` hands back, and the helpers every workload
//! shares: calibrated set-up timing, peak RSS, the result line.

use crate::calib::Kernel;
use crate::span::Spans;
use crate::{spec, stats};
use sd_serve::Json;
use std::collections::BTreeMap;
use std::time::Instant;

pub struct RunCtx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

pub type Metrics = BTreeMap<&'static str, f64>;

pub struct Outcome {
    /// Every output check passed (bit-identity, served ≡ offline, pins).
    pub correct: bool,
    /// Operations attempted / failed or refused (jobs, requests, recoveries).
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Human-readable lines printed before the result line: raw figures,
    /// sample counts, which check failed.
    pub notes: Vec<String>,
    pub spans: Option<Spans>,
    /// The calibration kernel of this workload and every sample of it
    /// taken during the run (seconds).
    pub kernel: Kernel,
    pub calib: Vec<f64>,
}

impl Outcome {
    pub fn new(kernel: Kernel) -> Outcome {
        Outcome {
            kernel,
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Metrics::new(),
            notes: Vec::new(),
            spans: None,
            calib: Vec::new(),
        }
    }

    /// Records a failed check; the run goes on so the report is complete.
    pub fn fail(&mut self, why: String) {
        self.correct = false;
        self.notes.push(format!("CHECK FAILED: {why}"));
    }

    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(why());
        }
    }

    /// One calibration sample, remembered for the run-level factor.
    pub fn calibrate(&mut self) -> f64 {
        let s = self.kernel.sample();
        self.calib.push(s);
        s
    }

    /// Run-level scale factor for per-layer timings: reference kernel time
    /// over the run's median kernel time.
    pub fn run_factor(&self) -> f64 {
        self.kernel.factor_at(stats::median(&self.calib))
    }

    /// Runs `setup` at least three times — up to fifteen while they fit in
    /// 0.3 s, so a 5 ms trace generation is not one noisy sample — between
    /// two calibration samples; returns the last product and the median
    /// calibrated duration.
    pub fn timed_setup<T>(&mut self, mut setup: impl FnMut() -> T) -> (T, f64) {
        let mut raw = Vec::new();
        let mut product = None;
        let before = self.calibrate();
        let started = Instant::now();
        while raw.len() < 3 || (raw.len() < 15 && started.elapsed().as_secs_f64() < 0.3) {
            let t0 = Instant::now();
            product = Some(setup());
            raw.push(t0.elapsed().as_secs_f64());
        }
        let after = self.calibrate();
        let median = stats::median(&raw) * self.kernel.factor(before, after);
        (product.expect("three set-ups ran"), median)
    }

    /// The contract's result line: exactly the declared metric set.
    pub fn result_line(&self, traced: bool) -> String {
        let declared: Vec<(&str, &str)> = if traced {
            spec::PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            spec::END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        let metrics = declared
            .into_iter()
            .map(|(name, unit)| {
                let value = self.metrics.get(name).copied().unwrap_or(0.0);
                let entry = Json::obj().set("value", value).set("unit", unit);
                (name.to_string(), entry)
            })
            .collect();
        Json::obj()
            .set("correct", self.correct)
            .set("attempted", self.attempted)
            .set("failed", self.failed)
            .set("metrics", Json::Obj(metrics))
            .render()
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Per-key median over several measurements of the same metric set.
pub fn median_of_maps(maps: &[Metrics]) -> Metrics {
    let mut out = Metrics::new();
    if let Some(first) = maps.first() {
        for &k in first.keys() {
            let vals: Vec<f64> = maps.iter().filter_map(|m| m.get(k).copied()).collect();
            out.insert(k, stats::median(&vals));
        }
    }
    out
}
