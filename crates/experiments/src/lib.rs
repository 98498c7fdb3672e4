//! # experiments — the TCP-PR evaluation, reproduced
//!
//! Everything needed to regenerate the paper's figures on the `netsim`
//! substrate:
//!
//! - [`topologies`]: the dumbbell, the Figure 1 parking lot (exact
//!   cross-traffic pairs and access bandwidths) and the Figure 5 multipath
//!   mesh;
//! - [`metrics`]: normalized throughput and coefficient of variation
//!   (Section 4 formulas), plus Jain fairness as an extension;
//! - [`variants`]: a factory over every sender variant;
//! - [`runner`]: warm-up/measure windows ("data sent during the last 60 s");
//! - [`figures`]: per-figure result types and paper-style tables (2, 3, 4
//!   and 6), plus the one-cell fairness and multipath harnesses;
//! - [`ablations`]: TCP-PR with one mechanism removed, one cell per
//!   ablation;
//! - [`sweep`]: the deterministic parallel sweep engine (scenario specs,
//!   worker pool, content-addressed result cache) and, in
//!   [`sweep::grids`], the one path that turns every figure into cells
//!   and assembles its table and `results/*.json` payload;
//! - [`stress`]: the impairment stress suite over `netsim::impair`
//!   (burst loss, jitter, duplication, link flaps, oscillating capacity);
//! - [`scale`]: the Internet-scale population harness over
//!   `crates/workload` (generated topologies, heavy-tailed flow churn at
//!   10k+ concurrent flows, streaming population metrics);
//! - [`telemetry`]: the `results/*.json` artifact wrapper, which embeds
//!   the deterministic `run_health` block
//!   ([`SessionStats`](netsim::telemetry::SessionStats)).
//!
//! The `repro` binary (`cargo run -p experiments --bin repro --release`)
//! runs every figure at paper scale and prints the tables recorded in
//! `EXPERIMENTS.md`.
//!
//! # Examples
//!
//! Reproduce a single Figure 6 cell (TCP-PR under full multipath):
//!
//! ```
//! use experiments::figures::fig6::run_multipath_point;
//! use experiments::runner::MeasurePlan;
//! use experiments::topologies::MeshConfig;
//! use experiments::variants::Variant;
//!
//! let p = run_multipath_point(
//!     Variant::TcpPr,
//!     0.0,
//!     MeshConfig::default(),
//!     MeasurePlan::quick(),
//!     7,
//! );
//! assert!(p.mbps > 10.0, "TCP-PR aggregates the parallel paths");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ablations;
pub mod explain;
pub mod figures;
pub mod hunt;
pub mod manet;
pub mod metrics;
pub mod routeflap;
pub mod runner;
pub mod scale;
pub mod stress;
pub mod sweep;
pub mod telemetry;
pub mod topologies;
pub mod validation;
pub mod variants;

pub use runner::MeasurePlan;
pub use variants::Variant;
