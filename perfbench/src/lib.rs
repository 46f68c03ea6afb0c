//! Single-process benchmark runner for the armbar analysis layers.
//!
//! Three workloads (see [`deck`]) call the public functions of `sim`,
//! `simapps`, `wmm`, `analyze` and `extract` directly, one unit at a time,
//! from one caller with no worker threads. [`bench::run`] measures either
//! the end-to-end metrics (untraced) or the per-layer metrics (traced).

pub mod bench;
pub mod deck;
pub mod exec;
pub mod rng;
pub mod stats;
pub mod trace;
pub mod verify;
