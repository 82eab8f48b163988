//! Shared utilities for the Cleo reproduction.
//!
//! This crate contains the small, dependency-free building blocks used by every
//! other crate in the workspace:
//!
//! * [`rng`] — deterministic random number generation (every experiment in the
//!   repository is reproducible from a fixed seed),
//! * [`stats`] — descriptive statistics used throughout the paper's evaluation
//!   (Pearson correlation, median/percentile relative errors, quantiles),
//! * [`cdf`] — ratio-distribution helpers used to regenerate the accuracy CDF
//!   figures (Figures 1, 11, 12, 13, 15),
//! * [`hash`] — stable 64-bit hashing used for operator/subgraph signatures
//!   (Section 5.1 of the paper),
//! * [`concurrency`] — cacheline-striped counters for the serving hot path and
//!   the poison-tolerant lock helper,
//! * [`fault`] — seeded, deterministic fault injection for chaos testing,
//! * [`obs`] — the observability layer: metrics registry, mergeable latency
//!   histograms, deterministic trace events, and the [`Instruments`] handle
//!   that carries observability and fault injection into the stack,
//! * [`scan`] — SWAR byte scanning and span-exact number parsing for the
//!   streaming telemetry readers,
//! * [`table`] — plain-text table rendering for the experiment runners,
//! * [`csvout`] — tiny CSV writer so experiment output can be post-processed,
//! * [`error`] — the shared error type.

pub mod cdf;
pub mod concurrency;
pub mod csvout;
pub mod error;
pub mod fault;
pub mod hash;
pub mod obs;
pub mod rng;
pub mod scan;
pub mod stats;
pub mod table;

pub use error::{CleoError, Result};
pub use fault::{FaultPlan, FaultSite};
pub use obs::{Instruments, MetricsSnapshot, Obs, TraceEvent};
