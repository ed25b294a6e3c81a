//! Per-function lock summaries over the call graph, computed to a
//! fixpoint.
//!
//! Each [`FnDef`] is summarized by the lock classes it acquires,
//! transitively through resolved calls, so the lock-discipline pass
//! sees a lock hidden behind a helper.
//!
//! Effects propagate caller-ward over *resolved* edges only (see
//! [`CallGraph::resolve`](crate::callgraph::CallGraph::resolve)): an
//! unresolvable call contributes nothing, keeping the pass exactly as
//! conservative as its per-function self on code the resolver cannot
//! see through.

use crate::callgraph::{CallGraph, FnDef};
use crate::locks;

/// Lock classes one definition acquires in its own body, sorted and
/// deduplicated.
fn intrinsic(def: &FnDef) -> Vec<String> {
    let mut lock_classes: Vec<String> = locks::acquisitions(&def.body)
        .into_iter()
        .map(|a| a.class)
        .collect();
    lock_classes.sort();
    lock_classes.dedup();
    lock_classes
}

/// The call graph plus every function's fixpoint lock summary — the
/// context handed to the lock-discipline pass.
#[derive(Debug, Default)]
pub struct SummaryContext {
    graph: CallGraph,
    /// Per definition: lock classes acquired, transitively, sorted.
    locks: Vec<Vec<String>>,
}

impl SummaryContext {
    /// Computes intrinsic facts and propagates them caller-ward over
    /// resolved edges until nothing changes.
    #[must_use]
    pub fn build(graph: CallGraph) -> Self {
        let mut locks: Vec<Vec<String>> = graph.defs.iter().map(intrinsic).collect();
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
                    let callee_locks = locks[j].clone();
                    let mine = &mut locks[i];
                    for class in callee_locks {
                        if !mine.contains(&class) {
                            mine.push(class);
                            mine.sort();
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        Self { graph, locks }
    }

    /// Resolves a call made from `caller_file` and returns the lock
    /// classes the callee acquires, transitively.
    #[must_use]
    pub fn locks_of(&self, caller_file: &str, name: &str) -> Option<&[String]> {
        let i = self.graph.resolve(caller_file, name)?;
        Some(&self.locks[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::function_defs;
    use crate::Scan;

    fn context(files: &[(&str, &str)]) -> SummaryContext {
        let mut defs = Vec::new();
        for (rel, src) in files {
            defs.extend(function_defs(rel, &Scan::new(src)));
        }
        SummaryContext::build(CallGraph::from_defs(defs))
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
        let locks = ctx.locks_of("crates/a/src/other.rs", "outer").unwrap();
        assert_eq!(locks, ["state".to_owned()]);
    }

    #[test]
    fn lock_classes_propagate_transitively() {
        let ctx = context(&[(
            "crates/a/src/lib.rs",
            "fn top() { middle(); }\nfn middle() { leaf(); }\n\
             fn leaf() { let g = inner.lock().unwrap_or_else(PoisonError::into_inner); g.len(); }\n",
        )]);
        let locks = ctx.locks_of("crates/a/src/lib.rs", "top").unwrap();
        assert_eq!(locks, ["inner".to_owned()]);
    }
}
