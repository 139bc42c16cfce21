//! # workload — workload generation for the SD-Policy reproduction
//!
//! Builds the five workloads of the paper's Table 1:
//!
//! | # | Source (paper)        | Here |
//! |---|-----------------------|------|
//! | 1 | Cirne model, ANL arrivals, user estimates | `cirne::workload1` |
//! | 2 | Cirne model, exact estimates (`Cirne_ideal`) | `cirne::workload2` |
//! | 3 | RICC-2010 archive trace | `ricc::workload3` (synthetic, statistically matched — DESIGN.md §4) |
//! | 4 | CEA-Curie-2011 cleaned trace | `curie::workload4` (synthetic, statistically matched) |
//! | 5 | Cirne model → real app submissions | `realrun::workload5` + [`apps`] (Table 2 models) |
//!
//! All generation is deterministic in the seed, built on forked
//! [`simkit::DetRng`] streams, and emits [`swf::Trace`] values so real
//! archive files can be substituted anywhere.

pub mod apps;
mod arrivals;
mod cirne;
mod curie;
pub(crate) mod dist;
mod realrun;
mod ricc;
mod spec;
pub(crate) mod synth;

pub use apps::{AppId, AppModel, APPS};
pub use arrivals::ArrivalModel;
pub use realrun::AppTrace;
pub use spec::PaperWorkload;
pub use synth::{EstimateModel, SizeStage, SyntheticTraceModel};
