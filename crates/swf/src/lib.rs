//! # swf — Standard Workload Format support
//!
//! Implements the Parallel Workloads Archive **Standard Workload Format
//! v2.2** (Feitelson, <http://www.cs.huji.ac.il/labs/parallel/workload/swf.html>):
//! the 18-field job record, the `;`-prefixed header comments, a tolerant
//! parser, a canonical writer, summary statistics and the cleaning filters
//! the paper applies to the CEA-Curie log ("only considering the primary
//! partition").
//!
//! The paper's workloads 3 and 4 are SWF traces (RICC-2010, CEA-Curie-2011).
//! We are offline, so the `workload` crate synthesises statistically matched
//! traces *through this crate's types*; if the genuine archives are available
//! the experiment binaries accept them directly via `--swf <file>`.

mod error;
pub mod filter;
mod header;
mod parse;
mod record;
mod stats;
pub mod write;

pub use error::SwfError;
pub use header::SwfHeader;
pub use parse::{parse_file, parse_str, Trace};
pub use record::{JobStatus, SwfJob};
pub use stats::TraceStats;
pub use write::{write_string, write_to};
