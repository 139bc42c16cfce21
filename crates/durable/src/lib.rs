//! `sd-durable` — crash tolerance for the online scheduling service.
//!
//! Dependency-free (like `sd-trace`): a checksummed, length-prefixed
//! write-ahead log ([`wal`]), atomic checkpoints ([`checkpoint`]), the
//! directory-level store + recovery protocol that ties them together
//! (`store`), and the byte codec ([`codec`]) that these headers and every
//! payload above them are written and read with. What a payload *means* is
//! owned by the caller (`sd-serve`, `slurm-sim`); this crate guarantees
//! that whatever bytes were appended come back in order, that a torn or
//! bit-flipped tail is cleanly discarded (never a panic), and that
//! checkpoint installation is atomic.
//!
//! The recovery claim the service builds on top: the scheduler is a
//! deterministic single-writer state machine over a virtual clock, so
//! *checkpoint + replay of the logged command stream is bit-identical to
//! never having crashed* (pinned end-to-end in `tests/serve_equivalence.rs`
//! at the workspace root, and by the chaos harness in `sd-loadgen --soak`).

pub mod checkpoint;
pub mod codec;
mod crc;
mod store;
pub mod wal;

pub use checkpoint::Checkpoint;
pub use crc::crc32;
pub use store::{DurableStore, Recovery, WAL_FILE};
pub use wal::{scan_bytes, FsyncPolicy, ScanOutcome, WalRecord};
