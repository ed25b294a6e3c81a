//! Positive fixture: a crate root missing both required attributes.
//! Analyzed under a synthetic `crates/x/src/lib.rs` path by
//! `workspace.rs`.

pub fn item() {}
