//! The Criterion benches and the wall-clock bench harness.
//!
//! Each Criterion bench target regenerates one of the paper's tables or
//! figures (`benches/figures.rs`, `benches/tables.rs`) or measures a
//! core primitive (`benches/micro.rs`). The table and figure benches
//! time [`fcdpm_sim::fixture::run_reference`] directly, the same
//! reference recipe the CLI, the experiment binaries and the
//! integration tests run, so the benches time exactly the code that
//! produces the published numbers.
//!
//! [`harness`] drives the `fcdpm bench` CLI subcommand: the reference
//! workloads under every policy through the batch runner, plus a
//! coalesced-versus-per-chunk A/B timing of the simulator fast path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
