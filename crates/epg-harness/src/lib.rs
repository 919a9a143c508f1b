//! `easy-parallel-graph-rs`: the paper's framework.
//!
//! §III breaks performance characterization into five phases, each one
//! shell command in the original; here each is a module plus an `epg` CLI
//! subcommand:
//!
//! 1. **setup** ([`registry`]) — instantiate the stable, homogenized
//!    engines;
//! 2. **homogenize** ([`dataset`]) — given a synthetic size or a SNAP file,
//!    materialize the per-engine input files;
//! 3. **run** ([`runner`]) — run every algorithm on every engine, many
//!    times (32 roots), with phase-separated timing; engine-style log
//!    files are emitted ([`logs`]);
//! 4. **parse** ([`logs`], [`csvio`]) — compress the logs into a CSV;
//! 5. **analyze** ([`stats`], [`plot`]) — statistics and SVG plots (the R
//!    phase of the original).
//!
//! [`graphalytics`] reimplements the comparison baseline: Graphalytics
//! v0.3's single-trial, phase-confounded methodology and its per-system
//! HTML report (Table I, Table II, Fig. 7). [`reproduce`] is the one driver
//! that regenerates every table and figure of the paper (`epg reproduce`)
//! and judges the paper's claims against what it measured.

#![warn(missing_docs)]
pub mod csvio;
pub mod dataset;
pub mod granula;
pub mod graphalytics;
pub mod logs;
pub mod pipeline;
pub mod plot;
pub mod registry;
pub mod report;
pub mod reproduce;
pub mod runner;
pub mod stats;
pub mod supervise;
pub mod tracefile;

pub use registry::EngineKind;
pub use runner::{ExperimentConfig, ExperimentResult, RunRecord};
pub use supervise::{SupervisorConfig, TrialOutcome};
