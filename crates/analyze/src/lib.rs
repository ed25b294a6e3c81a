//! Second-stage semantic analysis for the `fcdpm` workspace.
//!
//! Where `fcdpm-lint` does token-level pattern matching file by file,
//! this crate builds workspace-wide context and checks properties the
//! lint cannot see:
//!
//! * [`AnalyzeRule::Layering`] — a cross-crate symbol/module graph from
//!   `use` edges, checked against the intended dependency DAG (physics
//!   below policy below orchestration).
//! * [`AnalyzeRule::UnitDataflow`] — a conservative dataflow lattice
//!   that follows `fcdpm-units` newtypes through `let`-bindings and
//!   arithmetic inside function bodies, flagging dimensional mixes the
//!   signature-level lint cannot reach.
//! * [`AnalyzeRule::PaperConstants`] — every DAC'07 constant recorded in
//!   `paper-constants.toml` must appear verbatim as a literal in the
//!   source file its manifest section names.
//! * [`AnalyzeRule::GridFeasibility`] — committed runner job grids
//!   (`examples/*.json`) are validated against the load-following range
//!   and storage feasibility before any simulation runs.
//!
//! The third layer guards the byte-identical-artifact contract and the
//! lock discipline behind it:
//!
//! * [`AnalyzeRule::DeterminismTaint`] — nondeterminism sources
//!   (wall-clock, thread identity, hash-order iteration, env reads,
//!   unseeded RNG, channel arrival order) must not reach artifact sinks
//!   (manifest/shard/bench writers, FNV digest folds) without an
//!   explicit sort/canonicalize launder ([`taint`]).
//! * [`AnalyzeRule::LockDiscipline`] — a static lock-acquisition-order
//!   graph over every `Mutex` site: cycles (potential deadlock), guards
//!   held across job-closure calls, and poison handling inconsistent
//!   with the `lock_deque` idiom ([`locks`]).
//! * [`AnalyzeRule::DigestStability`] — digest-keyed structs
//!   (`GridSpec`, `JobSpec`) must account for every serde field in an
//!   explicit folded/masked manifest pair, so a new field can never
//!   silently alias or orphan resume caches ([`digest`]).
//! * [`AnalyzeRule::AtomicArtifact`] — every write into a grid run
//!   directory must go through the tmp+rename publishers or the
//!   checksummed-append checkpoint writer ([`artifacts`]), so a crash
//!   can never leave a half-written artifact a resume would parse.
//!
//! The fourth layer makes the engine interprocedural and incremental:
//!
//! * a workspace [call graph](callgraph) with per-function
//!   [summaries](summaries) computed to a fixpoint lets the
//!   determinism-taint and lock-discipline passes follow flows through
//!   helper calls across function and file boundaries;
//! * a digest-keyed [pass cache](cache) (`analyze-cache.json`) replays
//!   unchanged pass results, keyed by content digest for intra-file
//!   passes and by (content digest, dependency-summary digests) for
//!   interprocedural ones, with the cold scan parallelized on the
//!   `fcdpm-runner` pool.
//!
//! The report/baseline/SARIF machinery is shared with `fcdpm-lint`
//! (identical ledger semantics, disjoint rule catalogue, separate
//! `analyze-baseline.json`), and the same determinism contract holds:
//! findings are sorted by `(path, line, rule, message)` so two runs over
//! the same tree are byte-identical in every output format — including
//! a full-cache-hit run versus the cold run that seeded it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifacts;
pub mod cache;
pub mod callgraph;
pub mod constants;
pub mod dataflow;
pub mod digest;
pub mod grid;
pub mod locks;
pub mod summaries;
pub mod symbols;
mod syntax;
pub mod taint;
pub mod toml;

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use fcdpm_lint::{json, Baseline, Finding, Report, Scan};

pub use constants::MANIFEST_PATH;
pub use grid::PaperParams;
pub use symbols::SymbolGraph;

/// The analysis rule catalogue (disjoint from the lint's [`fcdpm_lint::Rule`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalyzeRule {
    /// Dimensional soundness of arithmetic inside function bodies.
    UnitDataflow,
    /// Cross-crate `use` edges respect the intended dependency layering.
    Layering,
    /// Hard-coded paper constants match `paper-constants.toml`.
    PaperConstants,
    /// Committed job grids are statically feasible.
    GridFeasibility,
    /// Nondeterminism sources must not reach artifact sinks un-laundered.
    DeterminismTaint,
    /// Lock acquisition order, guard scope and poison handling.
    LockDiscipline,
    /// Digest-keyed structs account for every field (folded or masked).
    DigestStability,
    /// Run-directory writes must use the atomic/checksummed helpers.
    AtomicArtifact,
}

/// Every rule, in catalogue order.
pub const ALL_RULES: [AnalyzeRule; 8] = [
    AnalyzeRule::UnitDataflow,
    AnalyzeRule::Layering,
    AnalyzeRule::PaperConstants,
    AnalyzeRule::GridFeasibility,
    AnalyzeRule::DeterminismTaint,
    AnalyzeRule::LockDiscipline,
    AnalyzeRule::DigestStability,
    AnalyzeRule::AtomicArtifact,
];

impl AnalyzeRule {
    /// Stable identifier used in reports, baselines and suppressions.
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            AnalyzeRule::UnitDataflow => "unit-dataflow",
            AnalyzeRule::Layering => "layering",
            AnalyzeRule::PaperConstants => "paper-constants",
            AnalyzeRule::GridFeasibility => "grid-feasibility",
            AnalyzeRule::DeterminismTaint => "determinism-taint",
            AnalyzeRule::LockDiscipline => "lock-discipline",
            AnalyzeRule::DigestStability => "digest-stability",
            AnalyzeRule::AtomicArtifact => "atomic-artifact",
        }
    }

    /// One-line description (also the SARIF rule short description).
    #[must_use]
    pub fn summary(self) -> &'static str {
        match self {
            AnalyzeRule::UnitDataflow => {
                "arithmetic must not mix raw f64 projections or newtypes of distinct dimensions"
            }
            AnalyzeRule::Layering => {
                "cross-crate use edges must follow the workspace dependency DAG"
            }
            AnalyzeRule::PaperConstants => {
                "hard-coded paper constants must match paper-constants.toml"
            }
            AnalyzeRule::GridFeasibility => {
                "committed job grids must be statically feasible for the paper hardware"
            }
            AnalyzeRule::DeterminismTaint => {
                "nondeterminism sources must not reach artifact sinks without a sort/canonicalize"
            }
            AnalyzeRule::LockDiscipline => {
                "lock acquisition order must be acyclic, guards must not cover job closures, \
                 and poison handling must match the lock_deque idiom"
            }
            AnalyzeRule::DigestStability => {
                "every field of a digest-keyed struct must be explicitly folded or masked"
            }
            AnalyzeRule::AtomicArtifact => {
                "run-directory writes must go through the tmp+rename or \
                 checksummed-append helpers"
            }
        }
    }
}

/// The `(id, summary)` pairs for SARIF output.
#[must_use]
pub fn rule_catalogue() -> Vec<(&'static str, &'static str)> {
    ALL_RULES.iter().map(|r| (r.id(), r.summary())).collect()
}

/// Crates whose function bodies the unit-dataflow pass covers (the same
/// physics set the lint's unit-safety rule guards).
pub const PHYSICS_CRATES: [&str; 8] = [
    "sim", "core", "predict", "fuelcell", "storage", "device", "dvs", "workload",
];

fn is_physics_file(rel_path: &str) -> bool {
    PHYSICS_CRATES
        .iter()
        .any(|krate| rel_path.starts_with(&format!("crates/{krate}/src/")))
}

/// Extracts the range/feasibility parameters the grid checks need from
/// parsed manifest sections. Returns `None` if any required key is
/// missing — the grid checks then skip their range-dependent parts.
#[must_use]
pub fn paper_params(sections: &[toml::Section]) -> Option<PaperParams> {
    fn num(sections: &[toml::Section], section: &str, key: &str) -> Option<f64> {
        sections
            .iter()
            .find(|s| s.name == section)?
            .pairs
            .iter()
            .find_map(|(k, v)| match v {
                toml::Value::Num(x) if k == key => Some(*x),
                _ => None,
            })
    }

    let i_f_min = num(sections, "load_following", "i_f_min_a")?;
    let i_f_max = num(sections, "load_following", "i_f_max_a")?;
    let alpha = num(sections, "efficiency", "alpha")?;
    let bus_v = num(sections, "efficiency", "v_bus_v")?;

    // Worst single sleep transition over every device preset section:
    // charge = P_tr / V_bus · (t_down + t_up), reported in mA·min.
    let mut worst_amp_seconds = 0.0f64;
    for section in sections {
        let get = |key: &str| {
            section.pairs.iter().find_map(|(k, v)| match v {
                toml::Value::Num(x) if k == key => Some(*x),
                _ => None,
            })
        };
        if let (Some(tr_w), Some(down_s), Some(up_s)) =
            (get("transition_w"), get("power_down_s"), get("wake_up_s"))
        {
            worst_amp_seconds = worst_amp_seconds.max(tr_w / bus_v * (down_s + up_s));
        }
    }
    Some(PaperParams {
        i_f_min,
        i_f_max,
        alpha,
        min_capacity_mamin: worst_amp_seconds * 1000.0 / 60.0,
    })
}

/// Collects the workspace-relative paths of committed grid JSON files
/// under `root/examples`, sorted.
fn grid_files(root: &Path) -> io::Result<Vec<String>> {
    let dir = root.join("examples");
    let mut rel = Vec::new();
    if dir.is_dir() {
        for entry in fs::read_dir(&dir)? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "json") {
                if let Some(name) = path.file_name() {
                    rel.push(format!("examples/{}", name.to_string_lossy()));
                }
            }
        }
    }
    rel.sort();
    Ok(rel)
}

/// Options for [`run_with`].
#[derive(Debug, Clone, Default)]
pub struct EngineOptions {
    /// Cache file to read and atomically rewrite (conventionally
    /// [`cache::CACHE_FILE`] under the analysis root). `None` disables
    /// both reading and writing — the [`run`] default, and the CLI's
    /// `--no-cache`.
    pub cache_path: Option<PathBuf>,
    /// Worker threads for the parallel per-file scan stage (`None` =
    /// available parallelism, capped at 8).
    pub workers: Option<usize>,
}

/// The result of an engine run: the report plus cache accounting.
#[derive(Debug)]
pub struct Analysis {
    /// The findings report (identical to what [`run`] returns).
    pub report: Report,
    /// Cache hit/miss accounting for this run.
    pub stats: cache::CacheStats,
    /// Inputs whose content digest differs from the loaded cache
    /// (every input, on a cold or cache-less run) — what the CLI's
    /// `--changed` focuses the report on.
    pub changed: BTreeSet<String>,
    /// Wall-clock phase timings, in execution order.
    pub timings: Vec<(&'static str, Duration)>,
}

/// Per-file output of the parallel scan stage.
struct FileData {
    rel: String,
    digest: u64,
    scan: Scan,
    symbols: symbols::FileSymbols,
    defs: Vec<callgraph::FnDef>,
    /// Intra-file pass results (pre-suppression).
    dataflow: Vec<Finding>,
    digest_pass: Vec<Finding>,
    artifacts_pass: Vec<Finding>,
    /// Content digest matched the loaded cache (intra results replayed).
    intra_hit: bool,
    /// The loaded cache entry, for the interprocedural deps compare.
    cached: Option<cache::CachedFile>,
}

/// Replays one cached pass bucket as findings for `rel`.
fn replay(entry: &cache::CachedFile, bucket: &str, rel: &str) -> Vec<Finding> {
    entry
        .passes
        .get(bucket)
        .map(|cached| cached.iter().map(|f| f.to_finding(rel)).collect())
        .unwrap_or_default()
}

/// Reads, digests and scans one file, replaying or running the
/// intra-file passes (the parallel stage's job body).
fn scan_one(rel: &str, path: &Path, cached: Option<cache::CachedFile>) -> io::Result<FileData> {
    let source = fs::read_to_string(path)?;
    let digest = cache::content_digest(source.as_bytes());
    let scan = Scan::new(&source);
    let symbols = symbols::file_symbols(rel, &scan);
    let defs = callgraph::function_defs(rel, &scan);
    let (intra_hit, dataflow, digest_pass, artifacts_pass) = match &cached {
        Some(entry) if entry.digest == digest => (
            true,
            replay(entry, "dataflow", rel),
            replay(entry, "digest", rel),
            replay(entry, "artifacts", rel),
        ),
        _ => {
            let df = if is_physics_file(rel) {
                dataflow::check_file(rel, &scan)
            } else {
                Vec::new()
            };
            (
                false,
                df,
                digest::check_file(rel, &source, &scan),
                artifacts::check_file(rel, &scan),
            )
        }
    };
    Ok(FileData {
        rel: rel.to_owned(),
        digest,
        scan,
        symbols,
        defs,
        dataflow,
        digest_pass,
        artifacts_pass,
        intra_hit,
        cached,
    })
}

/// Captures computed findings into a cache bucket.
fn bucket(findings: &[Finding]) -> Vec<cache::CachedFinding> {
    findings
        .iter()
        .map(cache::CachedFinding::from_finding)
        .collect()
}

/// Analyzes the workspace under `root` and matches the result against
/// `baseline` (conventionally `analyze-baseline.json`, kept separate
/// from the lint's ledger). Equivalent to [`run_with`] with default
/// options — no pass cache is read or written.
///
/// # Errors
///
/// Propagates I/O errors from traversal or file reads.
pub fn run(root: &Path, baseline: &Baseline) -> io::Result<Report> {
    run_with(root, baseline, &EngineOptions::default()).map(|analysis| analysis.report)
}

/// The incremental engine behind [`run`] and `fcdpm analyze`.
///
/// Phase A reads, digests and scans every workspace file in parallel
/// on the `fcdpm-runner` pool, replaying cached intra-file pass
/// results for unchanged files. Phase B builds the symbol and call
/// graphs, computes function summaries to a fixpoint, then replays or
/// runs the interprocedural passes per file (valid only while the
/// file's content *and* its resolved callees' summaries are
/// unchanged); the global graph passes are recomputed every run.
/// Cached findings are stored pre-suppression and re-filtered against
/// the live scans, and the rewritten cache is saved atomically.
///
/// # Errors
///
/// Propagates I/O errors from traversal, file reads, or the cache
/// write (a corrupt cache *read* degrades to a cold run instead).
pub fn run_with(root: &Path, baseline: &Baseline, options: &EngineOptions) -> io::Result<Analysis> {
    let t_total = Instant::now();
    let mut timings = Vec::new();
    let files = fcdpm_lint::workspace_files(root)?;
    let old_cache = options
        .cache_path
        .as_ref()
        .map_or_else(cache::Cache::default, |path| cache::Cache::load(path));
    let cold = old_cache.is_empty();

    // Phase A — parallel: read + digest + scan + extract + intra passes.
    let t_scan = Instant::now();
    let jobs: Vec<_> = files
        .iter()
        .map(|(rel, path)| {
            let rel = rel.clone();
            let path = path.clone();
            let cached = old_cache.files.get(&rel).cloned();
            move || scan_one(&rel, &path, cached)
        })
        .collect();
    let workers = options
        .workers
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get().min(8)));
    let mut data = Vec::with_capacity(files.len());
    for result in fcdpm_runner::pool::run_to_completion(jobs, workers, None) {
        match result.execution {
            fcdpm_runner::pool::Execution::Completed(file_data) => data.push(file_data?),
            fcdpm_runner::pool::Execution::Panicked(msg) => {
                return Err(io::Error::other(format!("analysis worker panicked: {msg}")));
            }
            fcdpm_runner::pool::Execution::TimedOut => {
                return Err(io::Error::other("analysis worker timed out"));
            }
        }
    }
    timings.push(("scan+intra", t_scan.elapsed()));

    // Phase B — serial: graphs, summaries, interprocedural + global passes.
    let t_graph = Instant::now();
    let mut graph = SymbolGraph::default();
    for file_data in &data {
        graph.files.push(file_data.symbols.clone());
    }
    let all_defs: Vec<callgraph::FnDef> =
        data.iter().flat_map(|d| d.defs.iter().cloned()).collect();
    let ctx = summaries::SummaryContext::build(callgraph::CallGraph::from_defs(all_defs));
    timings.push(("summaries", t_graph.elapsed()));

    let t_passes = Instant::now();
    let mut lock_graph = locks::LockGraph::default();
    let mut findings = Vec::new();
    let mut inline_suppressed = 0usize;
    let mut new_cache = cache::Cache::default();
    let mut changed: BTreeSet<String> = BTreeSet::new();
    let mut stats = cache::CacheStats {
        files_total: data.len(),
        cold,
        ..cache::CacheStats::default()
    };

    for file_data in &data {
        if !file_data.intra_hit {
            changed.insert(file_data.rel.clone());
        }
        let deps = ctx.file_deps(&file_data.rel);
        let (inter_hit, taint_findings) = match &file_data.cached {
            Some(entry) if file_data.intra_hit && entry.deps == deps => {
                (true, replay(entry, "taint", &file_data.rel))
            }
            _ => (
                false,
                taint::check_file(&file_data.rel, &file_data.scan, Some(&ctx)),
            ),
        };
        // Three intra buckets + one interprocedural bucket per file.
        let hits = if inter_hit {
            4
        } else if file_data.intra_hit {
            3
        } else {
            0
        };
        stats.pass_hits += hits;
        stats.pass_misses += 4 - hits;
        if hits == 4 {
            stats.files_reused += 1;
        }

        for finding in file_data
            .dataflow
            .iter()
            .chain(file_data.digest_pass.iter())
            .chain(file_data.artifacts_pass.iter())
            .chain(taint_findings.iter())
        {
            if file_data.scan.is_suppressed(finding.rule, finding.line) {
                inline_suppressed += 1;
            } else {
                findings.push(finding.clone());
            }
        }
        // The lock pass filters suppressions itself (its cycle findings
        // only materialize after every file has fed the graph).
        findings.extend(lock_graph.add_file(&file_data.rel, &file_data.scan, Some(&ctx)));

        new_cache.files.insert(
            file_data.rel.clone(),
            cache::CachedFile {
                digest: file_data.digest,
                deps,
                passes: BTreeMap::from([
                    ("dataflow".to_owned(), bucket(&file_data.dataflow)),
                    ("digest".to_owned(), bucket(&file_data.digest_pass)),
                    ("artifacts".to_owned(), bucket(&file_data.artifacts_pass)),
                    ("taint".to_owned(), bucket(&taint_findings)),
                ]),
            },
        );
    }
    findings.extend(symbols::check_layering(&graph));
    findings.extend(lock_graph.cycle_findings());

    let mut scanned: BTreeSet<String> = files.iter().map(|(rel, _)| rel.clone()).collect();
    let mut files_scanned = files.len();
    let mut track_input = |rel: &str, text: &str, changed: &mut BTreeSet<String>| {
        let digest = cache::content_digest(text.as_bytes());
        if old_cache.inputs.get(rel) != Some(&digest) {
            changed.insert(rel.to_owned());
        }
        new_cache.inputs.insert(rel.to_owned(), digest);
    };

    // Paper-constants conformance — skipped entirely when the manifest
    // is absent (scratch workspaces in tests have none).
    let manifest_path = root.join(MANIFEST_PATH);
    let mut params = None;
    if let Ok(text) = fs::read_to_string(&manifest_path) {
        scanned.insert(MANIFEST_PATH.to_owned());
        files_scanned += 1;
        track_input(MANIFEST_PATH, &text, &mut changed);
        findings.extend(constants::check(root, &text));
        if let Ok(sections) = toml::parse(&text) {
            params = paper_params(&sections);
        }
    }

    // Grid feasibility over committed examples/*.json documents.
    for rel in grid_files(root)? {
        let text = fs::read_to_string(root.join(&rel))?;
        scanned.insert(rel.clone());
        files_scanned += 1;
        track_input(&rel, &text, &mut changed);
        match json::parse(&text) {
            Ok(doc) if grid::looks_like_grid(&doc) => {
                findings.extend(grid::check(&rel, &doc, params.as_ref()));
            }
            Ok(_) => {}
            Err(err) => findings.push(Finding {
                rule: AnalyzeRule::GridFeasibility.id(),
                path: rel,
                line: 1,
                message: format!("does not parse as JSON: {err}"),
            }),
        }
    }
    timings.push(("passes", t_passes.elapsed()));

    findings.sort_by(|a, b| {
        (&a.path, a.line, a.rule, &a.message).cmp(&(&b.path, b.line, b.rule, &b.message))
    });
    let outcome = baseline.apply(findings, Some(&scanned));

    if let Some(path) = &options.cache_path {
        new_cache.save(path)?;
    }
    timings.push(("total", t_total.elapsed()));
    Ok(Analysis {
        report: Report {
            findings: outcome.findings,
            inline_suppressed,
            baselined: outcome.baselined,
            stale: outcome.stale,
            files_scanned,
        },
        stats,
        changed,
        timings,
    })
}

/// Analyzes the tree and builds a baseline that exactly covers the
/// current findings (the `--write-baseline` workflow).
///
/// # Errors
///
/// Propagates I/O errors from traversal or file reads.
pub fn snapshot_baseline(root: &Path, note: &str) -> io::Result<Baseline> {
    let report = run(root, &Baseline::default())?;
    Ok(Baseline::from_findings(&report.findings, note))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_are_stable_and_disjoint_from_lint() {
        let ids: Vec<&str> = ALL_RULES.iter().map(|r| r.id()).collect();
        assert_eq!(
            ids,
            [
                "unit-dataflow",
                "layering",
                "paper-constants",
                "grid-feasibility",
                "determinism-taint",
                "lock-discipline",
                "digest-stability",
                "atomic-artifact"
            ]
        );
        for rule in fcdpm_lint::Rule::ALL {
            assert!(!ids.contains(&rule.id()), "catalogues must not overlap");
        }
    }

    #[test]
    fn paper_params_come_from_the_committed_manifest_shape() {
        let text = "\
[efficiency]\npath = \"a.rs\"\nalpha = 0.45\nbeta = 0.13\nv_bus_v = 12.0\n\
[load_following]\npath = \"b.rs\"\ni_f_min_a = 0.1\ni_f_max_a = 1.2\n\
[camcorder]\npath = \"c.rs\"\ntransition_w = 4.8\npower_down_s = 0.5\nwake_up_s = 0.5\n\
[experiment2]\npath = \"c.rs\"\ntransition_w = 14.4\npower_down_s = 1.0\nwake_up_s = 1.0\n";
        let params = paper_params(&toml::parse(text).unwrap()).unwrap();
        assert!((params.i_f_min - 0.1).abs() < 1e-12);
        assert!((params.i_f_max - 1.2).abs() < 1e-12);
        assert!((params.alpha - 0.45).abs() < 1e-12);
        // Experiment 2: 14.4 W / 12 V × 2 s = 2.4 A·s = 40 mA·min.
        assert!(
            (params.min_capacity_mamin - 40.0).abs() < 1e-9,
            "{params:?}"
        );
    }

    #[test]
    fn missing_manifest_keys_mean_no_params() {
        assert!(paper_params(&toml::parse("[efficiency]\nalpha = 0.45\n").unwrap()).is_none());
    }
}
