//! # simkit — deterministic discrete-event simulation toolkit
//!
//! Substrate for the BSC-SLURM-simulator equivalent used by the SD-Policy
//! reproduction. Provides:
//!
//! * [`SimTime`] — integer simulation time in seconds (matching the Standard
//!   Workload Format resolution) with saturating arithmetic,
//! * [`EventQueue`] — an event queue (a sorted run beside a binary heap)
//!   with stable FIFO ordering for simultaneous events, the property that
//!   makes whole-simulation runs bit-reproducible,
//! * [`DetRng`] — seedable, forkable deterministic random streams,
//! * [`Mean`] — the running-sum mean every reported average folds through.
//!
//! There is no engine type: schedulers own their run loop and use the queue
//! directly, which keeps borrow patterns simple and the hot loop free of
//! dynamic dispatch.

mod event;
mod rng;
mod stats;
mod time;

pub use event::{EventQueue, ScheduledEvent};
pub use rng::DetRng;
pub use stats::Mean;
pub use time::{SimTime, DAY, HOUR};
