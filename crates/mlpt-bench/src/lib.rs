//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation.
//!
//! Each experiment is a library function returning a serializable result
//! plus a plain-text rendering, so the `experiments` binary can print it,
//! integration tests can assert on it at reduced scale, and `results/`
//! can archive the JSON. See DESIGN.md §4 for the experiment index and
//! EXPERIMENTS.md for paper-vs-measured records.

pub mod experiments;
pub mod progress;
pub mod render;
pub mod scale;

pub use scale::Scale;
