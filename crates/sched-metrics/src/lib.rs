//! # sched-metrics — analysis of simulation results
//!
//! Turns `slurm_sim::SimResult` values into the paper's figures and tables:
//!
//! * `summary` — the headline aggregates (§4's metric definitions:
//!   makespan, average response time, average slowdown, energy),
//! * [`heatmap`] — job-category bucketing by requested nodes × runtime class
//!   and the static/SD ratio heatmaps of Figs. 4–6,
//! * `timeseries` — per-day slowdown and malleable-start series (Fig. 7),
//! * `table` — plain-text table rendering for `run_scenario` and the examples,
//! * `export` — deterministic CSV/JSON writers (figures + scenario
//!   campaigns).

mod export;
pub mod heatmap;
pub mod histogram;
mod percentiles;
mod summary;
mod table;
pub(crate) mod timeseries;
pub(crate) mod tracesum;

pub use export::{
    campaign_csv, campaign_json, daily_csv, heatmap_csv, tenant_csv, CampaignDeltas,
    CampaignRow,
};
pub use heatmap::{Heatmap, HeatmapSpec, RatioHeatmap};
pub use histogram::Histogram;
pub use percentiles::Percentiles;
pub use summary::{tenant_summaries, Summary, TenantSummary};
pub use table::Table;
pub use timeseries::DailySeries;
pub use tracesum::{summarize, TraceSummary, WaitDecomposition};
