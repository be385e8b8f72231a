//! `eh-obs` — deterministic observability for the simulation stack.
//!
//! The paper's headline claim is an *overhead budget*: the FOCV
//! metrology chain draws ~7.6 µA average, under 20 % of the 200 lux
//! harvest. Asserting end totals cannot say *where* simulated time and
//! energy go; this crate can, without ever breaking the workspace's
//! determinism contract.
//!
//! The design rules, in order of importance:
//!
//! 1. **Simulated quantities only.** Span stats attribute simulated
//!    seconds and joules, never wall-clock time, worker counts, or
//!    anything else that varies between runs of the same scenario — so a
//!    [`Metrics`] produced by a sharded fleet run is bit-for-bit
//!    identical at any worker count.
//! 2. **One concrete store, called directly.** [`Metrics`] is the only
//!    sink: every record site takes `&mut Metrics` and calls its
//!    inherent methods (`add_counter`, `set_gauge`, `observe`, `charge`,
//!    `record_span_stats`). Hot paths hold an `Option<Box<Metrics>>`, so
//!    with observability off a record site is one `if let Some(m)`, and
//!    per-step loops accumulate in locals and flush once per run.
//! 3. **Allocation-light.** Metric names are `&'static str` keys into
//!    `BTreeMap`s (ordered, so exports are deterministic too); the
//!    [`EnergyLedger`] is a fixed five-bucket array.
//! 4. **Zero `unsafe`** (denied workspace-wide).
//!
//! The [`EnergyLedger`] splits consumption into astable /
//! sample-and-hold / converter-switching / load buckets and
//! [`EnergyLedger::check_conservation`] verifies the bucket sum against
//! an independently accumulated closed-loop total — the conservation
//! invariant the node layer enforces at the end of every observed run.

mod export;
mod histogram;
mod ledger;
mod metrics;

pub use histogram::Histogram;
pub use ledger::{EnergyBucket, EnergyLedger};
pub use metrics::{Metrics, SpanStats};
