//! # mfdfp-perfbench — the repository's one trusted benchmark
//!
//! One driver (`harness`), four named workloads, end-to-end and per-layer
//! metrics, every output checked against the decode oracle. The contract
//! is `BENCHMARK.json` at the repository root, generated from
//! [`catalog`]; the dictionary of workloads and metrics, and how they
//! interact, is in this directory's `README.md`.
//!
//! Every layer is measured **from outside** — by timing calls into its
//! public functions and reading `Server::metrics()`; no file outside
//! this directory is touched.

#![deny(missing_docs)]

pub mod catalog;
pub mod httpclient;
pub mod json;
pub mod layers;
pub mod loadgen;
pub mod models;
pub mod probes;
pub mod refkernel;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;
