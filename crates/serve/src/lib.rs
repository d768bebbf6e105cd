//! `swim-serve`: the experiment engine as a long-running service.
//!
//! One-shot `swim run` pays training and thread setup per invocation;
//! this crate turns the same engine into a server: submit an
//! [`swim_exp::spec::ExperimentSpec`] over HTTP/1.1 + JSON, have its
//! `(device model, sigma)` blocks scheduled onto one persistent shared
//! [`swim_core::pool::WorkerPool`], poll per-block progress, and fetch
//! a results document byte-identical (modulo wall time) to the CLI's.
//!
//! The crate is deliberately split along a dependency seam:
//!
//! * **Here:** the transport ([`http`] — a hand-rolled, std-only
//!   HTTP/1.1 subset), the job registry, bounded admission with 429
//!   backpressure, block-granular cooperative cancellation, and
//!   `/metrics` ([`server`]).
//! * **In `swim-bench`:** the [`server::JobEngine`] implementation that
//!   actually trains, sweeps, and assembles documents — including the
//!   single-flight trained-model cache that every block shares, keyed by
//!   [`swim_exp::spec::ExperimentSpec::trained_fingerprint`].
//!
//! That split keeps the service logic free of the experiment crates
//! (testable with a scripted engine) and lets the `swim` CLI own the
//! wiring. See `docs/serve.md` for the HTTP API contract.

#![warn(missing_docs)]

pub mod http;
pub mod server;

pub use http::{Request, Response};
pub use server::{serve_forever, BlockOutcome, BlockPayload, JobEngine, Server, ServerConfig};
