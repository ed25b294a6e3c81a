//! Scheduling must never leak into results: the same grid run on one
//! worker and on many workers yields byte-identical manifests once the
//! wall-time and worker-assignment fields are masked.

use fcdpm_runner::{
    run_grid, JobGrid, JobOutcome, JobSpec, PolicySpec, PredictorSpec, RunConfig, StorageSpec,
    WorkloadSpec,
};

fn paper_grid() -> JobGrid {
    let mut grid = JobGrid::new(
        vec![PolicySpec::Conv, PolicySpec::Asap, PolicySpec::FcDpm],
        vec![
            WorkloadSpec::Experiment1(0xDAC0_2007),
            WorkloadSpec::Experiment2(0xDAC0_2007),
        ],
    );
    grid.capacities_mamin = Some(vec![50.0, 100.0]);
    grid.predictors = Some(vec![PredictorSpec::Exponential(0.5)]);
    let mut poison = JobSpec::new(PolicySpec::Conv, WorkloadSpec::Experiment1(1));
    poison.inject_panic = Some(true);
    grid.extra_jobs = Some(vec![poison]);
    grid
}

#[test]
fn one_worker_and_many_workers_agree_byte_for_byte() {
    let grid = paper_grid();
    let serial = run_grid(&grid, &RunConfig::with_workers(1));
    let parallel = run_grid(&grid, &RunConfig::with_workers(4));
    assert_eq!(serial.records.len(), 13);
    assert_eq!(
        serial.deterministic_json(),
        parallel.deterministic_json(),
        "scheduling leaked into the manifest"
    );
}

#[test]
fn repeated_runs_are_reproducible() {
    let grid = paper_grid();
    let a = run_grid(&grid, &RunConfig::with_workers(2));
    let b = run_grid(&grid, &RunConfig::with_workers(2));
    assert_eq!(a.deterministic_json(), b.deterministic_json());
    // Job IDs are a pure function of the spec and its index.
    for (ra, rb) in a.records.iter().zip(&b.records) {
        assert_eq!(ra.id, rb.id);
        assert_eq!(ra.index, rb.index);
    }
}

#[test]
fn failed_jobs_are_deterministic_too() {
    let grid = paper_grid();
    let manifest = run_grid(&grid, &RunConfig::with_workers(3));
    assert_eq!(manifest.aggregates.failed, 1);
    assert_eq!(manifest.aggregates.completed, 12);
    // The poisoned job is always the last record, whatever thread ran it.
    let last = manifest.records.last().expect("non-empty run");
    assert_eq!(last.index, 12);
    assert!(matches!(last.outcome, fcdpm_runner::JobOutcome::Failed(_)));
}

/// FNV-1a of the compact outcome JSON of [`learning_tree_grid`]'s
/// records, joined as one JSON list. Any change to the learning-tree
/// predictor's decisions, the simulator or the JSON writer moves it.
const LEARNING_TREE_OUTCOMES_FNV: u64 = 0x0650_b960_3bb1_219e;

/// {Experiment1, Experiment2, Dvs} × 2 seeds × {Ideal, SuperCapacitor,
/// Kibam} × the learning tree × five policies: 90 jobs.
fn learning_tree_grid() -> JobGrid {
    let mut grid = JobGrid::new(
        vec![
            PolicySpec::Conv,
            PolicySpec::Asap,
            PolicySpec::FcDpm,
            PolicySpec::WindowedAverage,
            PolicySpec::Quantized(12),
        ],
        [3, 0xDAC0_2007]
            .into_iter()
            .flat_map(|seed| {
                [
                    WorkloadSpec::Experiment1(seed),
                    WorkloadSpec::Experiment2(seed),
                    WorkloadSpec::Dvs(seed),
                ]
            })
            .collect(),
    );
    grid.storages = Some(vec![
        StorageSpec::Ideal,
        StorageSpec::SuperCapacitor,
        StorageSpec::Kibam,
    ]);
    grid.predictors = Some(vec![PredictorSpec::LearningTree]);
    grid
}

#[test]
fn learning_tree_outcomes_are_pinned() {
    let manifest = run_grid(&learning_tree_grid(), &RunConfig::with_workers(2));
    assert_eq!(manifest.records.len(), 90);
    assert!(manifest.all_completed(), "a learning-tree job failed");
    let outcomes: Vec<&JobOutcome> = manifest.records.iter().map(|r| &r.outcome).collect();
    let json = serde_json::to_string(&outcomes).expect("outcomes serialize");
    assert_eq!(
        fcdpm_runner::spec::fnv1a(json.as_bytes()),
        LEARNING_TREE_OUTCOMES_FNV,
        "learning-tree outcomes moved"
    );
}
