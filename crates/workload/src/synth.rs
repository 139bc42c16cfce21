//! Generic synthetic trace model.
//!
//! All three trace families the paper uses (the Cirne–Berman model for
//! Workloads 1/2/5 and the statistically matched RICC / CEA-Curie synthetics
//! for Workloads 3/4) share the same generative skeleton:
//!
//! * arrivals: non-homogeneous Poisson (ANL daily pattern) plus user
//!   *campaign batches* (a fraction of submissions arrive as bursts of
//!   similar jobs — what produces the slowdown spikes of the paper's Fig. 7),
//! * sizes: staged log-uniform over node counts with a power-of-two
//!   preference (Cirne's observation),
//! * runtimes: log-normal with a mild positive size correlation, clamped,
//! * estimates: exact (`Cirne_ideal`) or user-style over-estimates rounded
//!   up to common wall-time limits.
//!
//! Presets live in [`crate::cirne`], [`crate::ricc`] and [`crate::curie`].

use crate::arrivals::ArrivalModel;
use crate::dist::{round_up_to_common_limit, LogNormal, Sampler};
use simkit::DetRng;
use swf::{SwfHeader, SwfJob, Trace};

/// How requested (user-estimated) wall times relate to real runtimes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EstimateModel {
    /// `req_time == run_time` (the paper's Workload 2, "Cirne_ideal").
    Exact,
    /// `req_time = round_up(run_time × f)`, `f` log-uniform in
    /// `[1, max_factor]` — the classic user over-estimation pattern.
    UserFactor { max_factor: f64 },
}

/// Tenant population mix: job submitters drawn from `tenants` tenant ids
/// (1..=N) with Zipf(`skew`) popularity — a few heavy tenants and a long
/// tail, the shape shared accounting databases show in practice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TenantMix {
    /// Number of distinct tenants; ids are `1..=tenants`.
    pub tenants: u32,
    /// Zipf exponent: 0 = uniform popularity, larger = more skewed.
    pub skew: f64,
}

/// One size class: with `weight`, draw node counts log-uniformly in
/// `[lo, hi]` nodes.
#[derive(Debug, Clone, Copy)]
pub struct SizeStage {
    pub weight: f64,
    pub lo: u32,
    pub hi: u32,
}

/// The generative model; see module docs.
#[derive(Debug, Clone)]
pub struct SyntheticTraceModel {
    pub name: &'static str,
    pub n_jobs: usize,
    pub system_nodes: u32,
    pub cores_per_node: u32,
    pub arrivals: ArrivalModel,
    /// Size classes (weights need not sum to 1; they are normalised).
    pub stages: Vec<SizeStage>,
    /// Probability a parallel job size is rounded to a power of two.
    pub(crate) pow2_preference: f64,
    /// Runtime distribution (seconds) of *production* jobs, before size
    /// correlation and clamping.
    pub runtime: LogNormal,
    /// Fraction of jobs that are short debug/test runs — production logs are
    /// strongly bimodal, and this mass of tiny jobs is what produces the
    /// thousands-scale average slowdowns of the paper's Table 1.
    pub(crate) short_fraction: f64,
    /// Log-uniform runtime range of the short-job mode, seconds.
    pub(crate) short_range: (f64, f64),
    /// Runtime multiplier exponent on node count: `rt × nodes^alpha`.
    pub(crate) size_runtime_alpha: f64,
    pub runtime_min: u64,
    pub runtime_max: u64,
    pub estimates: EstimateModel,
    /// Probability a submission starts a campaign batch.
    pub batch_p: f64,
    /// Mean extra jobs in a batch (geometric tail).
    pub batch_mean: f64,
    /// Optional tenant identity mix. `None` keeps the legacy synthetic user
    /// stamp (`id % 97`) byte-identical; `Some` draws each job's SWF user
    /// from an independent RNG stream, leaving every other field untouched.
    pub(crate) tenant_mix: Option<TenantMix>,
}

impl SyntheticTraceModel {
    // ----- builder-style knobs (used by the scenario engine) -----

    /// Overrides the job count.
    pub fn with_jobs(mut self, n_jobs: usize) -> Self {
        self.n_jobs = n_jobs.max(1);
        self
    }

    /// Replaces the whole arrival process.
    pub fn with_arrivals(mut self, arrivals: ArrivalModel) -> Self {
        self.arrivals = arrivals;
        self
    }

    /// Overrides only the mean interarrival (seconds), keeping the pattern.
    pub fn with_mean_interarrival(mut self, secs: f64) -> Self {
        self.arrivals.mean_interarrival = secs.max(1e-9);
        self
    }

    /// Overrides the campaign-batch behaviour (`batch_p`, `batch_mean`).
    pub fn with_batching(mut self, batch_p: f64, batch_mean: f64) -> Self {
        self.batch_p = batch_p.clamp(0.0, 1.0);
        self.batch_mean = batch_mean.max(0.0);
        self
    }

    /// Resizes the machine; size stages are clamped to it at sampling time.
    pub fn with_system_nodes(mut self, nodes: u32) -> Self {
        self.system_nodes = nodes.max(1);
        self
    }

    /// Stamps jobs with a Zipf-skewed tenant mix (see `TenantMix`).
    pub fn with_tenant_mix(mut self, tenants: u32, skew: f64) -> Self {
        self.tenant_mix = Some(TenantMix {
            tenants: tenants.max(1),
            skew: skew.max(0.0),
        });
        self
    }

    /// Draws a node count according to the staged size model.
    fn sample_nodes(&self, rng: &mut DetRng) -> u32 {
        let weights: Vec<f64> = self.stages.iter().map(|s| s.weight).collect();
        let stage = &self.stages[rng.weighted_index(&weights)];
        let lo = stage.lo.max(1) as f64;
        let raw = crate::dist::LogUniform {
            lo,
            hi: (stage.hi as f64).max(lo),
        }
        .sample(rng);
        let mut nodes = raw.round().max(1.0) as u32;
        if nodes > 2 && rng.chance(self.pow2_preference) {
            // Round to the nearest power of two (Cirne's observed preference).
            let lg = (nodes as f64).log2().round() as u32;
            nodes = 1u32 << lg.min(30);
        }
        nodes.clamp(1, self.max_job_nodes())
    }

    /// Largest node count any stage can produce.
    pub fn max_job_nodes(&self) -> u32 {
        self.stages
            .iter()
            .map(|s| s.hi)
            .max()
            .unwrap_or(1)
            .min(self.system_nodes)
    }

    fn sample_runtime(&self, nodes: u32, rng: &mut DetRng) -> u64 {
        if rng.chance(self.short_fraction) {
            let rt = crate::dist::LogUniform {
                lo: self.short_range.0.max(1.0),
                hi: self.short_range.1.max(self.short_range.0.max(1.0)),
            }
            .sample(rng);
            return (rt as u64).clamp(self.runtime_min, self.runtime_max);
        }
        let base = self.runtime.sample(rng);
        let rt = base * (nodes as f64).powf(self.size_runtime_alpha);
        (rt as u64).clamp(self.runtime_min, self.runtime_max)
    }

    fn sample_estimate(&self, runtime: u64, rng: &mut DetRng) -> u64 {
        match self.estimates {
            EstimateModel::Exact => runtime,
            EstimateModel::UserFactor { max_factor } => {
                let f = crate::dist::LogUniform {
                    lo: 1.0,
                    hi: max_factor.max(1.0),
                }
                .sample(rng);
                round_up_to_common_limit(runtime as f64 * f).max(runtime)
            }
        }
    }

    /// Extra jobs in a campaign batch: geometric with the configured mean.
    fn sample_batch_extra(&self, rng: &mut DetRng) -> usize {
        if self.batch_mean <= 0.0 {
            return 0;
        }
        let p = 1.0 / (1.0 + self.batch_mean);
        let mut k = 0usize;
        while !rng.chance(p) && k < 200 {
            k += 1;
        }
        k
    }

    /// Generates the full trace. Deterministic in `seed`.
    pub fn generate(&self, seed: u64) -> Trace {
        let root = DetRng::new(seed);
        let mut arr_rng = root.fork(1);
        let mut size_rng = root.fork(2);
        let mut rt_rng = root.fork(3);
        let mut est_rng = root.fork(4);
        let mut batch_rng = root.fork(5);
        // Stream 6 is tenant-only: enabling a mix cannot perturb arrivals,
        // sizes or runtimes (the untenanted trace stays byte-identical).
        let mut tenant_rng = root.fork(6);
        let tenant_weights: Option<Vec<f64>> = self.tenant_mix.map(|m| {
            (1..=m.tenants).map(|k| f64::from(k).powf(-m.skew)).collect()
        });

        let mut jobs: Vec<SwfJob> = Vec::with_capacity(self.n_jobs);
        // Batches consume several jobs per submission event, so submission
        // events must be spaced further apart to keep the configured
        // *per-job* mean interarrival (and hence the trace's span).
        let mean_batch = 1.0 + self.batch_p * self.batch_mean;
        let mut point_arrivals = self.arrivals.clone();
        point_arrivals.mean_interarrival = self.arrivals.mean_interarrival * mean_batch;
        let arrivals = point_arrivals.generate(self.n_jobs, 0, &mut arr_rng);
        let mut arrival_iter = arrivals.into_iter();
        let mut more_arrivals = |rng: &mut DetRng, last: u64| -> u64 {
            arrival_iter.next().unwrap_or_else(|| {
                last + (rng.range_f64(0.5, 1.5) * point_arrivals.mean_interarrival) as u64
            })
        };
        let mut last_t = 0u64;
        while jobs.len() < self.n_jobs {
            let t = more_arrivals(&mut batch_rng, last_t);
            last_t = t;
            let batch = if batch_rng.chance(self.batch_p) {
                1 + self.sample_batch_extra(&mut batch_rng)
            } else {
                1
            };
            // A campaign shares a size/runtime "shape" with per-job jitter.
            let proto_nodes = self.sample_nodes(&mut size_rng);
            let proto_rt = self.sample_runtime(proto_nodes, &mut rt_rng);
            for b in 0..batch {
                if jobs.len() >= self.n_jobs {
                    break;
                }
                let (nodes, rt) = if b == 0 {
                    (proto_nodes, proto_rt)
                } else {
                    let jitter = rt_rng.range_f64(0.7, 1.3);
                    (
                        proto_nodes,
                        ((proto_rt as f64 * jitter) as u64)
                            .clamp(self.runtime_min, self.runtime_max),
                    )
                };
                let procs = nodes as u64 * self.cores_per_node as u64;
                let req_time = self.sample_estimate(rt, &mut est_rng);
                // Batched submissions arrive a few seconds apart.
                let submit = t + b as u64;
                let id = jobs.len() as u64 + 1;
                let mut job = SwfJob::for_simulation(id, submit, rt, procs, req_time);
                match &tenant_weights {
                    Some(w) => {
                        job.user = (tenant_rng.weighted_index(w) + 1) as i64;
                        job.group = 0;
                    }
                    None => job.user = (id % 97) as i64, // legacy synthetic user mix
                }
                jobs.push(job);
            }
        }
        jobs.sort_by_key(|j| (j.submit, j.job_id));
        for (i, j) in jobs.iter_mut().enumerate() {
            j.job_id = i as u64 + 1;
        }

        let mut header = SwfHeader::new();
        header.set("Computer", self.name);
        header.set("MaxNodes", self.system_nodes);
        header.set(
            "MaxProcs",
            self.system_nodes as u64 * self.cores_per_node as u64,
        );
        header.set("MaxJobs", jobs.len());
        header.set("Note", "synthetic trace generated by sd-sched workload models");
        Trace::new(header, jobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_model() -> SyntheticTraceModel {
        SyntheticTraceModel {
            name: "tiny",
            n_jobs: 500,
            system_nodes: 64,
            cores_per_node: 8,
            arrivals: ArrivalModel::uniform(100.0),
            stages: vec![
                SizeStage {
                    weight: 0.8,
                    lo: 1,
                    hi: 8,
                },
                SizeStage {
                    weight: 0.2,
                    lo: 8,
                    hi: 32,
                },
            ],
            pow2_preference: 0.5,
            runtime: LogNormal::from_median(600.0, 1.0),
            short_fraction: 0.2,
            short_range: (10.0, 60.0),
            size_runtime_alpha: 0.1,
            runtime_min: 10,
            runtime_max: 86_400,
            estimates: EstimateModel::UserFactor { max_factor: 5.0 },
            batch_p: 0.2,
            batch_mean: 3.0,
            tenant_mix: None,
        }
    }

    #[test]
    fn generates_requested_job_count() {
        let t = tiny_model().generate(42);
        assert_eq!(t.len(), 500);
        assert_eq!(t.header.max_nodes(), Some(64));
        assert_eq!(t.header.max_procs(), Some(512));
    }

    #[test]
    fn jobs_sorted_and_renumbered() {
        let t = tiny_model().generate(42);
        assert!(t.jobs.windows(2).all(|w| w[0].submit <= w[1].submit));
        for (i, j) in t.jobs.iter().enumerate() {
            assert_eq!(j.job_id, i as u64 + 1);
        }
    }

    #[test]
    fn sizes_within_bounds_and_whole_nodes() {
        let m = tiny_model();
        let t = m.generate(1);
        for j in &t.jobs {
            let procs = j.procs().unwrap();
            assert_eq!(procs % 8, 0, "whole-node proc counts");
            let nodes = procs / 8;
            assert!((1..=32).contains(&nodes), "nodes {nodes}");
        }
    }

    #[test]
    fn runtimes_clamped() {
        let t = tiny_model().generate(2);
        for j in &t.jobs {
            let rt = j.runtime().unwrap();
            assert!((10..=86_400).contains(&rt));
            assert!(j.requested_time().unwrap() >= rt, "estimates never low");
        }
    }

    #[test]
    fn exact_estimates_mode() {
        let mut m = tiny_model();
        m.estimates = EstimateModel::Exact;
        let t = m.generate(3);
        for j in &t.jobs {
            assert_eq!(j.req_time, j.run_time);
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let m = tiny_model();
        assert_eq!(m.generate(9).jobs, m.generate(9).jobs);
        assert_ne!(m.generate(9).jobs, m.generate(10).jobs);
    }

    #[test]
    fn batches_create_simultaneous_submissions() {
        let t = tiny_model().generate(4);
        // With batch_p = 0.2 and mean 3 extra jobs, clusters of nearby
        // submissions must exist.
        let close = t
            .jobs
            .windows(2)
            .filter(|w| w[1].submit - w[0].submit <= 1)
            .count();
        assert!(close > 30, "campaign batches present ({close})");
    }

    #[test]
    fn builder_knobs_apply() {
        let exact = SyntheticTraceModel { estimates: EstimateModel::Exact, ..tiny_model() };
        let m = exact
            .with_jobs(123)
            .with_mean_interarrival(17.0)
            .with_batching(0.9, 12.0)
            .with_system_nodes(32);
        assert_eq!(m.n_jobs, 123);
        assert!((m.arrivals.mean_interarrival - 17.0).abs() < 1e-12);
        assert!((m.batch_p - 0.9).abs() < 1e-12);
        assert!((m.batch_mean - 12.0).abs() < 1e-12);
        assert_eq!(m.estimates, EstimateModel::Exact);
        assert_eq!(m.system_nodes, 32);
        let t = m.generate(8);
        assert_eq!(t.len(), 123);
        assert!(t.jobs.iter().all(|j| j.procs().unwrap() / 8 <= 32));
        assert!(t.jobs.iter().all(|j| j.req_time == j.run_time));
    }

    #[test]
    fn tenant_mix_stamps_users_without_touching_anything_else() {
        let base = tiny_model().generate(42);
        let mixed = tiny_model().with_tenant_mix(4, 1.0).generate(42);
        assert_eq!(base.len(), mixed.len());
        for (a, b) in base.jobs.iter().zip(&mixed.jobs) {
            assert!((1..=4).contains(&b.user), "tenant id in range: {}", b.user);
            assert_eq!(b.group, 0);
            // Only the identity fields differ; the schedule-relevant trace
            // is byte-identical to the untenanted draw.
            let mut a2 = a.clone();
            a2.user = b.user;
            a2.group = b.group;
            assert_eq!(&a2, b);
        }
    }

    #[test]
    fn tenant_skew_makes_tenant_one_heaviest() {
        let t = tiny_model().with_tenant_mix(8, 1.5).generate(7);
        let mut counts = [0usize; 9];
        for j in &t.jobs {
            counts[j.user as usize] += 1;
        }
        assert!(
            counts[1] > counts[8] * 2,
            "Zipf skew: tenant 1 ({}) dwarfs tenant 8 ({})",
            counts[1],
            counts[8]
        );
        // Uniform mix (skew 0) spreads far more evenly.
        let u = tiny_model().with_tenant_mix(8, 0.0).generate(7);
        let mut uc = [0usize; 9];
        for j in &u.jobs {
            uc[j.user as usize] += 1;
        }
        let (min, max) = (uc[1..].iter().min().unwrap(), uc[1..].iter().max().unwrap());
        assert!(*max < *min * 3, "uniform mix is balanced ({min}..{max})");
    }

    #[test]
    fn max_job_nodes_capped_by_system() {
        let mut m = tiny_model();
        m.stages[1].hi = 10_000;
        assert_eq!(m.max_job_nodes(), 64);
        let t = m.generate(5);
        for j in &t.jobs {
            assert!(j.procs().unwrap() / 8 <= 64);
        }
    }
}
