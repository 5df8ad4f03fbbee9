//! Measurement plumbing for the evaluation harness.
//!
//! Every experiment in the paper reports some view over per-user
//! end-to-end latencies: CDFs (Fig. 3), traces over time (Figs. 4, 6, 8),
//! averages vs. user count (Fig. 5), averages within a window and
//! cross-user standard deviation (Fig. 9c/9d). This crate collects raw
//! samples once and derives all of those views.
//!
//! # Examples
//!
//! ```
//! use armada_metrics::LatencyRecorder;
//! use armada_types::{SimDuration, SimTime, UserId};
//!
//! let mut rec = LatencyRecorder::new();
//! rec.record(UserId::new(1), SimTime::from_secs(1), SimDuration::from_millis(40));
//! rec.record(UserId::new(2), SimTime::from_secs(1), SimDuration::from_millis(60));
//! assert_eq!(rec.mean().unwrap().as_millis_f64(), 50.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cdf;
mod recorder;
mod report;
mod stats;
mod table;

pub use cdf::Cdf;
pub use recorder::{LatencyRecorder, LatencySample};
pub use report::{BenchReport, BenchRun};
pub use stats::{mean, percentile, stddev};
pub use table::{render_csv, render_table};
