//! Per-function summaries over the call graph, computed to a fixpoint.
//!
//! Each [`FnDef`](crate::callgraph::FnDef) gets a [`FnSummary`] of the
//! effects interprocedural passes care about:
//!
//! * `returns_taint` — the function's return value carries a
//!   nondeterminism kind (it reads a taint source, or calls a function
//!   that returns one, and nothing in its own body launders);
//! * `launders` — the body contains an explicit sort/`BTree*` launder,
//!   so its output is deterministic regardless of its inputs;
//! * `locks` — the lock classes the function acquires, transitively
//!   through resolved calls, so the lock-discipline pass sees a lock
//!   hidden behind a helper.
//!
//! Effects propagate caller-ward over *resolved* edges only (see
//! [`CallGraph::resolve`](crate::callgraph::CallGraph::resolve)): an
//! unresolvable call contributes nothing, keeping the passes exactly as
//! conservative as their old per-function selves on code the resolver
//! cannot see through. The fixpoint folds transitive effects into every
//! direct callee's summary, which is what lets the cache key an
//! interprocedural pass on just the *direct* dependency digests.

use std::collections::BTreeMap;

use fcdpm_runner::spec::fnv1a;

use crate::callgraph::{CallGraph, FnDef};
use crate::locks;
use crate::taint;

/// The effect summary of one function.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FnSummary {
    /// Nondeterminism kind the return value carries, if any.
    pub returns_taint: Option<&'static str>,
    /// The body launders its data (sort/`BTree*`).
    pub launders: bool,
    /// Lock classes acquired, transitively, sorted and deduplicated.
    pub locks: Vec<String>,
}

impl FnSummary {
    /// FNV-1a digest of the canonical rendering — the unit the cache
    /// folds into a file's dependency digest.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let canonical = format!(
            "taint={};launders={};locks={}",
            self.returns_taint.unwrap_or("-"),
            u8::from(self.launders),
            self.locks.join(",")
        );
        fnv1a(canonical.as_bytes())
    }
}

/// Intrinsic (pre-fixpoint) facts of one definition.
fn intrinsic(def: &FnDef) -> FnSummary {
    let launders = taint::is_laundering(&def.body);
    let returns_taint = if launders || !def.has_return {
        None
    } else {
        taint::source_kinds(&def.body).first().copied()
    };
    let mut lock_classes: Vec<String> = locks::acquisitions(&def.body)
        .into_iter()
        .map(|a| a.class)
        .collect();
    lock_classes.sort();
    lock_classes.dedup();
    FnSummary {
        returns_taint,
        launders,
        locks: lock_classes,
    }
}

/// The call graph plus every function's fixpoint summary — the context
/// handed to the interprocedural passes.
#[derive(Debug, Default)]
pub struct SummaryContext {
    graph: CallGraph,
    summaries: Vec<FnSummary>,
}

impl SummaryContext {
    /// Computes intrinsic facts and propagates them caller-ward over
    /// resolved edges until nothing changes.
    #[must_use]
    pub fn build(graph: CallGraph) -> Self {
        let mut summaries: Vec<FnSummary> = graph.defs.iter().map(intrinsic).collect();
        loop {
            let mut changed = false;
            for i in 0..graph.defs.len() {
                let def = &graph.defs[i];
                for callee in &def.calls {
                    let Some(j) = graph.resolve(&def.file, callee) else {
                        continue;
                    };
                    if i == j {
                        continue;
                    }
                    let callee_summary = summaries[j].clone();
                    let mine = &mut summaries[i];
                    if let Some(kind) = callee_summary.returns_taint {
                        if def.has_return && !mine.launders && mine.returns_taint.is_none() {
                            mine.returns_taint = Some(kind);
                            changed = true;
                        }
                    }
                    for class in callee_summary.locks {
                        if !mine.locks.contains(&class) {
                            mine.locks.push(class);
                            mine.locks.sort();
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        Self { graph, summaries }
    }

    /// Resolves a call made from `caller_file` and returns the callee's
    /// definition and summary.
    #[must_use]
    pub fn resolve(&self, caller_file: &str, name: &str) -> Option<(&FnDef, &FnSummary)> {
        let i = self.graph.resolve(caller_file, name)?;
        Some((&self.graph.defs[i], &self.summaries[i]))
    }

    /// The interprocedural dependency list of `file`: for every call
    /// made by one of its functions that resolves *outside* the file,
    /// the callee's stable key and summary digest, sorted and
    /// deduplicated. Two runs agree on this list iff every summary the
    /// file's passes consulted is unchanged — the cache's validity
    /// condition for interprocedural results.
    #[must_use]
    pub fn file_deps(&self, file: &str) -> Vec<(String, u64)> {
        let mut deps: BTreeMap<String, u64> = BTreeMap::new();
        for def in self.graph.defs.iter().filter(|d| d.file == file) {
            for callee in &def.calls {
                let Some(i) = self.graph.resolve(file, callee) else {
                    continue;
                };
                if self.graph.defs[i].file == file {
                    continue; // same-file effects are covered by the content digest
                }
                deps.insert(self.graph.key_of(i), self.summaries[i].digest());
            }
        }
        deps.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::function_defs;
    use fcdpm_lint::Scan;

    fn context(files: &[(&str, &str)]) -> SummaryContext {
        let mut defs = Vec::new();
        for (rel, src) in files {
            defs.extend(function_defs(rel, &Scan::new(src)));
        }
        SummaryContext::build(CallGraph::from_defs(defs))
    }

    #[test]
    fn wall_clock_reads_propagate_to_callers_with_returns() {
        let ctx = context(&[(
            "crates/a/src/lib.rs",
            "fn stamp() -> u64 { let t = Instant::now(); pack(t) }\n\
             fn wrapped() -> u64 { stamp() + 1 }\n\
             fn consumed(x: u64) { record(stamp(), x); }\n",
        )]);
        let (_, s) = ctx.resolve("crates/a/src/lib.rs", "stamp").unwrap();
        assert_eq!(s.returns_taint, Some("wall-clock time"));
        let (_, w) = ctx.resolve("crates/a/src/lib.rs", "wrapped").unwrap();
        assert_eq!(w.returns_taint, Some("wall-clock time"));
        // No return type — nothing flows out.
        let (_, c) = ctx.resolve("crates/a/src/lib.rs", "consumed").unwrap();
        assert_eq!(c.returns_taint, None);
    }

    #[test]
    fn laundering_bodies_cut_the_propagation() {
        let ctx = context(&[(
            "crates/a/src/lib.rs",
            "fn arrivals() -> Vec<u64> { rx.recv().into_iter().collect() }\n\
             fn ordered() -> Vec<u64> { let mut v = arrivals(); v.sort(); v }\n",
        )]);
        let (_, s) = ctx.resolve("crates/a/src/lib.rs", "ordered").unwrap();
        assert!(s.launders);
        assert_eq!(s.returns_taint, None);
    }

    #[test]
    fn lock_classes_cross_resolved_edges() {
        let ctx = context(&[
            (
                "crates/a/src/lib.rs",
                "fn outer(&mut self) { grab(); }\n",
            ),
            (
                "crates/a/src/util.rs",
                "fn grab() { let g = state.lock().unwrap_or_else(PoisonError::into_inner); g.len(); }\n",
            ),
        ]);
        let (_, s) = ctx.resolve("crates/a/src/other.rs", "outer").unwrap();
        assert_eq!(s.locks, vec!["state".to_owned()]);
    }

    #[test]
    fn file_deps_list_only_cross_file_resolutions() {
        let ctx = context(&[
            (
                "crates/a/src/lib.rs",
                "fn top() -> u64 { local() + remote() }\nfn local() -> u64 { 1 }\n",
            ),
            ("crates/a/src/util.rs", "fn remote() -> u64 { 2 }\n"),
        ]);
        let deps = ctx.file_deps("crates/a/src/lib.rs");
        assert_eq!(deps.len(), 1);
        assert_eq!(deps[0].0, "crates/a/src/util.rs::remote#0");
        // Digests are stable across rebuilds of the same tree.
        let again = context(&[
            (
                "crates/a/src/lib.rs",
                "fn top() -> u64 { local() + remote() }\nfn local() -> u64 { 1 }\n",
            ),
            ("crates/a/src/util.rs", "fn remote() -> u64 { 2 }\n"),
        ]);
        assert_eq!(deps, again.file_deps("crates/a/src/lib.rs"));
    }
}
