//! Lock-discipline pass: static acquisition-order graph, guards held
//! across job closures, and poison-handling consistency.
//!
//! The work-stealing pool (`runner/pool.rs`) and the shard engine
//! (`grid/engine.rs`) are the only places the workspace holds locks,
//! and their correctness argument is a *discipline*, not a type: every
//! deque guard is a statement-scoped temporary, jobs never run under a
//! lock, and poisoning is tolerated through the `lock_deque` idiom
//! (`.lock().unwrap_or_else(PoisonError::into_inner)`). This pass
//! checks the discipline statically, workspace-wide:
//!
//! * every `Mutex` acquisition site (`.lock()` receivers and
//!   `lock_deque(&…)` calls) is assigned a lock *class* — the receiver
//!   text with index expressions collapsed, so `deques[worker]` and
//!   `deques[victim]` share the class `deques[_]`;
//! * while a `let`-bound guard is held, each further acquisition adds a
//!   `held → acquired` edge; any edge that closes a cycle (including a
//!   self-edge on an indexed class: two instances of the same lock
//!   family held at once) is a potential deadlock;
//! * a call into job-closure machinery (`job(…)`, `run_guarded(…)`,
//!   `catch_unwind(…)`, `execute(…)`, `visit(…)`) while a guard is held
//!   means a panicking job poisons the lock — flagged;
//! * in a file that uses the poison-tolerant idiom, any raw
//!   `.lock().unwrap()` / `.lock().expect(…)` is an inconsistent
//!   poison policy — one panicked worker would cascade.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::ops::Range;

use crate::callgraph;
use crate::summaries::SummaryContext;
use crate::syntax;
use crate::{Finding, Rule, Scan};

/// Callees that run (or directly wrap) user job closures: holding any
/// lock across them risks poisoning on job panic.
const CLOSURE_CALLS: [&str; 5] = ["job", "run_guarded", "catch_unwind", "execute", "visit"];

/// One `let`-bound guard currently in scope.
struct HeldGuard {
    name: String,
    class: String,
    depth: u32,
}

/// Workspace-wide acquisition-order graph, fed one file at a time; its
/// cycle findings come out once every file is in.
#[derive(Debug, Default)]
pub struct LockGraph {
    /// `(held, acquired) -> first witness (path, line)`. Edges whose
    /// witness line carries an inline suppression are never recorded.
    edges: BTreeMap<(String, String), (String, usize)>,
}

/// An acquisition site inside one segment.
pub(crate) struct Acquisition {
    pub(crate) offset: usize,
    pub(crate) class: String,
    /// Byte just past the full acquisition expression (after any
    /// poison-adapter suffix), for guard-binding detection.
    pub(crate) end: usize,
}

/// Finds every acquisition in `segment` (a `lock_deque(&…)` call or a
/// `recv.lock()` chain), in offset order.
pub(crate) fn acquisitions(segment: &str) -> Vec<Acquisition> {
    let mut out = Vec::new();
    for off in syntax::word_occurrences(segment, "lock_deque") {
        let open = off + "lock_deque".len();
        if segment.as_bytes().get(open) != Some(&b'(') {
            continue;
        }
        let Some(close) = syntax::matching(segment, open, b'(', b')') else {
            continue;
        };
        out.push(Acquisition {
            offset: off,
            class: syntax::normalize_lock_class(&segment[open + 1..close]),
            end: close + 1,
        });
    }
    let mut from = 0usize;
    while let Some(rel) = segment[from..].find(".lock()") {
        let at = from + rel;
        from = at + ".lock()".len();
        let Some(recv) = syntax::receiver_before(segment, at) else {
            continue;
        };
        // Skip the poison-adapter suffix so `m.lock().unwrap()` binds a
        // guard, while `m.lock().unwrap().len()` stays a temporary.
        let mut end = at + ".lock()".len();
        for adapter in [".unwrap()", ".unwrap_or_else(", ".expect("] {
            if segment[end..].starts_with(adapter) {
                end += adapter.len();
                if adapter.ends_with('(') {
                    if let Some(close) = syntax::matching(segment, end - 1, b'(', b')') {
                        end = close + 1;
                    }
                }
                break;
            }
        }
        out.push(Acquisition {
            offset: at - recv.len(),
            class: syntax::normalize_lock_class(recv),
            end,
        });
    }
    out.sort_by_key(|a| a.offset);
    out
}

/// Brace depth before each byte of `body` (`depths[i]` = depth entering
/// byte `i`, relative to the function body).
fn depth_map(body: &str) -> Vec<u32> {
    let mut depths = Vec::with_capacity(body.len() + 1);
    let mut depth = 0u32;
    depths.push(depth);
    for b in body.bytes() {
        match b {
            b'{' => depth += 1,
            b'}' => depth = depth.saturating_sub(1),
            _ => {}
        }
        depths.push(depth);
    }
    depths
}

impl LockGraph {
    /// Scans one file: records acquisition-order edges into the graph
    /// and returns the file-local findings (guard-across-closure-call,
    /// poison inconsistency). Inline-suppressed lines are skipped here;
    /// the caller never needs to re-filter. With a [`SummaryContext`],
    /// a resolved call into a function that (transitively) acquires
    /// locks, made while a guard is held, orders `held → callee-lock`
    /// exactly like an inline acquisition.
    pub fn add_file(
        &mut self,
        rel_path: &str,
        scan: &Scan,
        ctx: Option<&SummaryContext>,
    ) -> Vec<Finding> {
        let cleaned = &scan.cleaned;
        if !cleaned.contains(".lock()") && !cleaned.contains("lock_deque") {
            return Vec::new();
        }
        let mut findings = Vec::new();
        let rule = Rule::LockDiscipline.id();
        let reportable = |line: usize| !scan.is_test_line(line) && !scan.is_suppressed(rule, line);

        // Poison-policy consistency: raw lock().unwrap()/expect() in a
        // file that elsewhere tolerates poisoning.
        if cleaned.contains("PoisonError") {
            for needle in [".lock().unwrap()", ".lock().expect("] {
                for off in syntax::word_occurrences(cleaned, needle) {
                    let line = scan.line_of(off);
                    if reportable(line) {
                        findings.push(Finding {
                            rule,
                            path: rel_path.to_owned(),
                            line,
                            message: format!(
                                "inconsistent poison handling: `{}` alongside the \
                                 poison-tolerant `lock_deque` idiom — one panicked \
                                 worker would cascade",
                                needle.trim_start_matches('.').trim_end_matches('(')
                            ),
                        });
                    }
                }
            }
        }

        for (fn_off, body_range) in syntax::function_bodies(cleaned) {
            if scan.is_test_line(scan.line_of(fn_off)) {
                continue;
            }
            self.walk_body(rel_path, scan, &body_range, ctx, &mut findings, &reportable);
        }
        findings
    }

    fn walk_body(
        &mut self,
        rel_path: &str,
        scan: &Scan,
        body_range: &Range<usize>,
        ctx: Option<&SummaryContext>,
        findings: &mut Vec<Finding>,
        reportable: &dyn Fn(usize) -> bool,
    ) {
        let cleaned = &scan.cleaned;
        let body = &cleaned[body_range.clone()];
        let depths = depth_map(body);
        let rule = Rule::LockDiscipline.id();
        let mut held: Vec<HeldGuard> = Vec::new();

        for (seg_start, seg_range) in syntax::segments(cleaned, body_range) {
            let segment = &cleaned[seg_range.clone()];
            let seg_rel = seg_start - body_range.start;
            let acqs = acquisitions(segment);

            // Scope exits inside this segment release guards first —
            // a `}` before a call means the guard is already gone.
            let mut events: Vec<(usize, usize)> = Vec::new(); // (offset, acq index or MAX for brace)
            for (i, b) in segment.bytes().enumerate() {
                if b == b'}' {
                    events.push((i, usize::MAX));
                }
            }
            for (i, acq) in acqs.iter().enumerate() {
                events.push((acq.offset, i));
            }
            events.sort_unstable();

            for (off, what) in &events {
                if *what == usize::MAX {
                    let new_depth = depths[seg_rel + off + 1];
                    held.retain(|g| g.depth <= new_depth);
                } else {
                    let acq = &acqs[*what];
                    let line = scan.line_of(seg_start + acq.offset);
                    for guard in &held {
                        if !reportable(line) {
                            continue;
                        }
                        self.edges
                            .entry((guard.class.clone(), acq.class.clone()))
                            .or_insert_with(|| (rel_path.to_owned(), line));
                    }
                }
            }

            // Two acquisitions alive inside one statement order
            // left-to-right as well.
            for pair in acqs.windows(2) {
                let line = scan.line_of(seg_start + pair[1].offset);
                if reportable(line) {
                    self.edges
                        .entry((pair[0].class.clone(), pair[1].class.clone()))
                        .or_insert_with(|| (rel_path.to_owned(), line));
                }
            }

            // A resolved call into a function whose summary acquires
            // locks, with a guard held: the hidden acquisition orders
            // held → callee-lock like an inline one would.
            if !held.is_empty() {
                if let Some(ctx) = ctx {
                    for (off, name) in callgraph::call_sites(segment) {
                        if name == "lock_deque" {
                            continue; // modelled precisely by acquisitions()
                        }
                        let Some(callee_locks) = ctx.locks_of(rel_path, &name) else {
                            continue;
                        };
                        let line = scan.line_of(seg_start + off);
                        if !reportable(line) {
                            continue;
                        }
                        for class in callee_locks {
                            for guard in &held {
                                self.edges
                                    .entry((guard.class.clone(), class.clone()))
                                    .or_insert_with(|| (rel_path.to_owned(), line));
                            }
                        }
                    }
                }
            }

            // A call into job-closure machinery with any guard held.
            if !held.is_empty() {
                for callee in CLOSURE_CALLS {
                    for off in syntax::word_occurrences(segment, callee) {
                        if segment.as_bytes().get(off + callee.len()) != Some(&b'(') {
                            continue;
                        }
                        let line = scan.line_of(seg_start + off);
                        if reportable(line) {
                            findings.push(Finding {
                                rule,
                                path: rel_path.to_owned(),
                                line,
                                message: format!(
                                    "guard on `{}` is held across a call into `{callee}`; \
                                     a panicking job would poison the lock",
                                    held[held.len() - 1].class
                                ),
                            });
                        }
                    }
                }
            }

            // `drop(guard)` releases by name.
            for off in syntax::word_occurrences(segment, "drop") {
                if segment.as_bytes().get(off + "drop".len()) == Some(&b'(') {
                    let arg_start = off + "drop".len() + 1;
                    if let Some(close) = syntax::matching(segment, off + "drop".len(), b'(', b')') {
                        let name = segment[arg_start..close].trim();
                        held.retain(|g| g.name != name);
                    }
                }
            }

            // Guard binding: `let g = <acquisition>;` where the whole
            // value is the guard (nothing consumes it afterwards).
            if let Some(let_off) = syntax::word_occurrences(segment, "let").first().copied() {
                let after_let = &segment[let_off..];
                if let Some(eq) = after_let.find('=') {
                    let binder: String = after_let["let".len()..eq]
                        .trim()
                        .trim_start_matches("mut ")
                        .trim()
                        .chars()
                        .take_while(|&c| syntax::is_ident_char(c))
                        .collect();
                    if !binder.is_empty() {
                        for acq in &acqs {
                            if acq.offset > let_off && segment[acq.end..].trim().is_empty() {
                                held.push(HeldGuard {
                                    name: binder.clone(),
                                    class: acq.class.clone(),
                                    depth: depths[seg_rel + acq.offset.min(body.len())],
                                });
                                break;
                            }
                        }
                    }
                }
            }
        }
    }

    /// Edges that close a cycle in the acquisition-order graph, one
    /// finding per witnessing edge (both halves of an A↔B inversion are
    /// implicated at their own lines).
    #[must_use]
    pub fn cycle_findings(&self) -> Vec<Finding> {
        let mut findings = Vec::new();
        for ((from, to), (path, line)) in &self.edges {
            if self.reaches(to, from) {
                let message = if from == to {
                    format!(
                        "`{from}` is acquired while another `{to}` instance is already \
                         held — two workers doing this concurrently deadlock"
                    )
                } else {
                    format!(
                        "`{from}` is held while acquiring `{to}`, closing an \
                         acquisition-order cycle (potential deadlock)"
                    )
                };
                findings.push(Finding {
                    rule: Rule::LockDiscipline.id(),
                    path: path.clone(),
                    line: *line,
                    message,
                });
            }
        }
        findings
    }

    /// Is `target` reachable from `start` over recorded edges?
    fn reaches(&self, start: &str, target: &str) -> bool {
        let mut queue: VecDeque<&str> = VecDeque::new();
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        queue.push_back(start);
        while let Some(node) = queue.pop_front() {
            if node == target {
                return true;
            }
            for (from, to) in self.edges.keys() {
                if from == node && seen.insert(to) {
                    queue.push_back(to);
                }
            }
        }
        false
    }
}

/// Runs the pass over a single file in isolation, without summaries
/// (fixture tests; the workspace run feeds every file through one
/// shared [`LockGraph`] with a [`SummaryContext`]).
#[must_use]
pub fn check_file(rel_path: &str, scan: &Scan) -> Vec<Finding> {
    let mut graph = LockGraph::default();
    let mut findings = graph.add_file(rel_path, scan, None);
    findings.extend(graph.cycle_findings());
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_on(src: &str) -> Vec<Finding> {
        check_file("crates/runner/src/pool.rs", &Scan::new(src))
    }

    #[test]
    fn statement_temporaries_build_no_edges() {
        let src = "fn steal() {\n    let mut next = lock_deque(&deques[worker]).pop_front();\n    let n = lock_deque(&deques[victim]).pop_back();\n}\n";
        assert!(run_on(src).is_empty(), "{:?}", run_on(src));
    }

    #[test]
    fn opposite_order_held_guards_are_a_cycle() {
        let src = "\
fn ab() {\n    let a = first.lock().unwrap_or_else(PoisonError::into_inner);\n    let b = second.lock().unwrap_or_else(PoisonError::into_inner);\n    a.push(b.len());\n}\n\
fn ba() {\n    let b = second.lock().unwrap_or_else(PoisonError::into_inner);\n    let a = first.lock().unwrap_or_else(PoisonError::into_inner);\n    b.push(a.len());\n}\n";
        let findings = run_on(src);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().all(|f| f.message.contains("cycle")));
    }

    #[test]
    fn two_instances_of_an_indexed_family_are_a_self_cycle() {
        let src = "fn f() {\n    let a = lock_deque(&deques[i]);\n    let b = lock_deque(&deques[j]);\n    swap(a, b);\n}\n";
        let findings = run_on(src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("deadlock"));
    }

    #[test]
    fn guard_dropped_before_second_acquisition_is_clean() {
        let src = "fn f() {\n    let a = lock_deque(&deques[i]);\n    let n = a.len();\n    drop(a);\n    let b = lock_deque(&deques[j]);\n    b.push_back(n);\n}\n";
        assert!(run_on(src).is_empty(), "{:?}", run_on(src));
    }

    #[test]
    fn block_scoped_guard_releases_at_brace() {
        let src = "fn f() {\n    if go {\n        let a = lock_deque(&deques[i]);\n        a.len();\n    }\n    let b = lock_deque(&deques[j]);\n    b.len();\n}\n";
        assert!(run_on(src).is_empty(), "{:?}", run_on(src));
    }

    #[test]
    fn job_call_under_guard_is_flagged() {
        let src = "fn f() {\n    let guard = lock_deque(&deques[w]);\n    let outcome = run_guarded(job, timeout);\n}\n";
        let findings = run_on(src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("run_guarded"));
        assert!(findings[0].message.contains("poison"));
    }

    #[test]
    fn hidden_helper_lock_under_a_guard_orders_via_the_summary() {
        use crate::callgraph::{function_defs, CallGraph};
        use crate::summaries::SummaryContext;

        let helper = "fn grab_second() -> usize {\n    let g = second.lock().unwrap_or_else(PoisonError::into_inner);\n    g.len()\n}\n";
        let caller = "fn ab() {\n    let a = first.lock().unwrap_or_else(PoisonError::into_inner);\n    let n = grab_second();\n    a.push(n);\n}\nfn ba() {\n    let b = second.lock().unwrap_or_else(PoisonError::into_inner);\n    let a = first.lock().unwrap_or_else(PoisonError::into_inner);\n    b.push(a.len());\n}\n";
        let caller_scan = Scan::new(caller);
        let helper_scan = Scan::new(helper);

        // Without summaries the inversion is invisible (ab's second
        // acquisition hides inside the helper).
        let mut blind = LockGraph::default();
        let mut blind_findings = blind.add_file("crates/runner/src/pool.rs", &caller_scan, None);
        blind_findings.extend(blind.add_file("crates/runner/src/util.rs", &helper_scan, None));
        blind_findings.extend(blind.cycle_findings());
        assert!(blind_findings.is_empty(), "{blind_findings:?}");

        let mut defs = function_defs("crates/runner/src/pool.rs", &caller_scan);
        defs.extend(function_defs("crates/runner/src/util.rs", &helper_scan));
        let ctx = SummaryContext::build(CallGraph::from_defs(defs));
        let mut graph = LockGraph::default();
        let mut findings = graph.add_file("crates/runner/src/pool.rs", &caller_scan, Some(&ctx));
        findings.extend(graph.add_file("crates/runner/src/util.rs", &helper_scan, Some(&ctx)));
        findings.extend(graph.cycle_findings());
        assert!(
            findings.iter().any(|f| f.message.contains("cycle")),
            "{findings:?}"
        );
    }

    #[test]
    fn raw_unwrap_next_to_tolerant_idiom_is_flagged() {
        let src = "fn a() { let g = m.lock().unwrap_or_else(PoisonError::into_inner); g.len(); }\nfn b() { let n = m.lock().unwrap().len(); }\n";
        let findings = run_on(src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("poison handling"));
        assert_eq!(findings[0].line, 2);
    }
}
