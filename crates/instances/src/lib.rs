//! Benchmark instance synthesis for associative-skew clock routing.
//!
//! The paper evaluates on the classic `r1`–`r5` clock benchmarks (267 to
//! 3101 sinks; Tsay 1991 / Cong et al. 1998), which are not redistributable
//! here. This crate synthesizes **seeded, deterministic equivalents**: the
//! same sink counts, uniform placement over a 100 000 µm die (which puts
//! zero-skew wirelengths and source-to-sink delays in the same regime as
//! the originals), and era-realistic sink loads.
//!
//! Two group partitioners reproduce the paper's two experiments:
//!
//! * [`partition::clustered`] — the die is divided into as many rectangle
//!   boxes as groups; sinks in a box form a group (Table I);
//! * [`partition::intermingled`] — sinks are assigned to groups uniformly
//!   at random, so every group spreads across the whole die (Table II).
//!
//! # Example
//!
//! ```
//! use astdme_instances::{r_benchmark, partition, RBench};
//!
//! let placement = r_benchmark(RBench::R1, 42);
//! let inst = partition::intermingled(&placement, 4, 7)?;
//! assert_eq!(inst.sink_count(), 267);
//! assert_eq!(inst.groups().group_count(), 4);
//! # Ok::<(), astdme_core::InstanceError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod partition;
mod rbench;
mod serialize;

pub use rbench::{r_benchmark, synthetic_instance, Placement, RBench};
pub use serialize::{from_json, to_json};
