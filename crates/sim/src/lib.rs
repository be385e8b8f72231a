//! `eh-sim` — the shared simulation engine.
//!
//! Every experiment layer in this workspace used to own a private copy
//! of the same loop: advance a clock through a light profile, hand each
//! slice to the system under test, and accumulate energy ledgers into a
//! report. This crate owns that loop once:
//!
//! - [`Stepper`] is the contract a simulated system implements;
//! - [`Light`] unifies constant-level and trace-driven illumination;
//! - [`drive`] is the time-stepping engine: fixed slices on the `dt`
//!   grid, the last one ending at the light's end;
//! - [`SweepRunner`] fans independent jobs across the calling thread
//!   and scoped helpers with stable, input-order collection, so sweeps
//!   are bit-for-bit deterministic regardless of worker count;
//! - [`Mergeable`] + [`SweepRunner::run_shards`] are the sharded
//!   map-reduce used by fleet-scale aggregation: the worker closure
//!   receives a whole contiguous shard (so shard-wide setup is paid
//!   once), shard reports fold in shard index order, and the result is
//!   bit-identical at any worker count; [`SweepRunner::run_merged`] is
//!   the per-item spelling of the same contract.
//!
//! The crate is std-only by design: the build environment has no crate
//! registry access, so parallelism comes from `std::thread::scope`
//! rather than an external thread pool.

mod engine;
mod light;
mod merge;
mod stepper;
mod sweep;

pub use engine::drive;
pub use light::Light;
pub use merge::Mergeable;
pub use stepper::{StepInput, Stepper};
pub use sweep::SweepRunner;
