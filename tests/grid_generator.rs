//! Property tests pinning the lazy job-grid decoder to eager expansion.
//!
//! Both on-disk spellings of a job grid — `JobGrid` (`fcdpm batch`) and
//! `GridSpec` (`fcdpm grid run`) — lower into one `fcdpm_runner::Axes`,
//! whose mixed-radix `job_at` drives iteration, random access and shard
//! slicing. These tests generate small random grids of both shapes and
//! require the decoder and the nested-loop reference `Axes::expand` to
//! agree bit for bit: count, ordering, specs, digests and job IDs, and
//! random access in any visit order. The scenario runs `Axes` derives
//! from its radices (the blocks pool workers claim) must equal a scan
//! of the decoded jobs.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    reason = "binaries and tests may panic"
)]

use fcdpm_grid::{spec_digest, FaultPreset, GridSpec, SeedAxis, SeedRange, WorkloadKind};
use fcdpm_runner::{
    scenario_runs, Axes, DevicePreset, JobGrid, JobSpec, PolicySpec, PredictorSpec, StorageSpec,
    WorkloadSpec,
};
use proptest::prelude::*;

const WORKLOADS: [WorkloadKind; 4] = [
    WorkloadKind::Experiment1,
    WorkloadKind::Experiment2,
    WorkloadKind::MultiDevice,
    WorkloadKind::Dvs,
];

const POLICIES: [PolicySpec; 5] = [
    PolicySpec::Conv,
    PolicySpec::Asap,
    PolicySpec::FcDpm,
    PolicySpec::WindowedAverage,
    PolicySpec::Quantized(4),
];

const FAULTS: [FaultPreset; 6] = [
    FaultPreset::None,
    FaultPreset::Starvation,
    FaultPreset::Fade,
    FaultPreset::Storage,
    FaultPreset::Predictor,
    FaultPreset::Combined,
];

/// The first `count` values of `values`; zero leaves the axis out.
fn axis<T: Clone>(values: &[T], count: usize) -> Option<Vec<T>> {
    (count > 0).then(|| values[..count].to_vec())
}

/// A `GridSpec` whose every axis shape (list vs range, present vs
/// defaulted, 1..N entries) is reachable from integer knobs.
fn grid_spec(seed: u64, seeds_as_list: bool, counts: [usize; 6]) -> GridSpec {
    let [seed_count, workloads, policies, faults, capacities, resilient] = counts;
    let seeds = if seeds_as_list {
        SeedAxis::List((0..seed_count as u64).map(|i| seed ^ (i * 7919)).collect())
    } else {
        SeedAxis::Range(SeedRange {
            start: seed,
            count: seed_count as u64,
        })
    };
    let mut spec = GridSpec::new(
        seeds,
        WORKLOADS[..workloads].to_vec(),
        POLICIES[..policies].to_vec(),
    );
    spec.faults = axis(&FAULTS, faults);
    spec.capacities_mamin = axis(&[50.0, 75.0], capacities);
    spec.resilient = axis(&[false, true], resilient);
    spec
}

/// A `JobGrid` with explicit seeded workloads, every optional axis
/// present or defaulted, and `extra` one-off jobs.
fn job_grid(seed: u64, counts: [usize; 9]) -> JobGrid {
    let [workloads, policies, devices, storages, predictors, betas, paths, capacities, extra] =
        counts;
    let workloads = (0..workloads as u64)
        .map(|i| WORKLOADS[i as usize].with_seed(seed ^ (i * 104_729)))
        .collect();
    let mut grid = JobGrid::new(POLICIES[..policies].to_vec(), workloads);
    let device_axis = [
        DevicePreset::Default,
        DevicePreset::DvdCamcorder,
        DevicePreset::Experiment2,
    ];
    grid.devices = axis(&device_axis, devices);
    let storage_axis = [
        StorageSpec::Ideal,
        StorageSpec::SuperCapacitor,
        StorageSpec::Kibam,
    ];
    grid.storages = axis(&storage_axis, storages);
    let predictor_axis = [PredictorSpec::Exponential(0.5), PredictorSpec::Oracle];
    grid.predictors = axis(&predictor_axis, predictors);
    grid.betas = axis(&[0.13, 0.2], betas);
    grid.buffer_path_efficiencies = axis(&[1.0, 0.9], paths);
    grid.capacities_mamin = axis(&[50.0, 100.0], capacities);
    let mut one_off = JobSpec::new(PolicySpec::FcDpm, WORKLOADS[0].with_seed(seed));
    one_off.faults = FaultPreset::Combined.schedule(seed);
    one_off.resilient = Some(true);
    grid.extra_jobs = axis(&[one_off.clone(), one_off], extra);
    grid
}

/// The decoder must reproduce the eager reference exactly, and random
/// access at `probes`, in the order given, must agree with it: decoding
/// never depends on visit order.
fn decoder_matches_reference(axes: Axes<'_>, probes: &[u64]) -> Result<(), String> {
    prop_assert!(axes.validate().is_ok(), "{:?}", axes.validate());
    let eager = axes.expand();
    prop_assert_eq!(eager.len() as u64, axes.len());
    prop_assert_eq!(axes.iter().count(), eager.len());
    for (index, lazy_job) in axes.iter() {
        let i = usize::try_from(index).expect("small grid");
        prop_assert_eq!(&lazy_job, &eager[i], "spec diverges at index {}", index);
        prop_assert_eq!(
            lazy_job.id(i),
            eager[i].id(i),
            "job id diverges at {}",
            index
        );
        prop_assert_eq!(spec_digest(&lazy_job), spec_digest(&eager[i]));
    }
    for &probe in probes {
        let probe = probe % axes.len();
        let job = axes.job_at(probe).expect("in range");
        prop_assert_eq!(&job, &eager[usize::try_from(probe).expect("small grid")]);
    }
    prop_assert!(axes.job_at(axes.len()).is_none());
    prop_assert!(axes.job_at(u64::MAX).is_none());
    prop_assert_eq!(
        axes.scenario_runs(),
        scenario_runs(axes.iter().map(|(_, job)| job)),
        "scenario runs from the radices diverge from the scan"
    );
    Ok(())
}

/// Equal neighbouring scenarios merge into one run, across the end of
/// the product into the extra jobs too; the random grids above never
/// repeat a workload, so this pins the merge.
#[test]
fn equal_neighbouring_scenarios_merge_into_one_run() {
    let (exp1, dvs) = (WorkloadSpec::Experiment1(5), WorkloadSpec::Dvs(5));
    let mut grid = JobGrid::new(
        vec![PolicySpec::Conv, PolicySpec::FcDpm],
        vec![exp1.clone(), exp1.clone(), dvs.clone()],
    );
    grid.extra_jobs = Some(vec![
        JobSpec::new(PolicySpec::Asap, dvs),
        JobSpec::new(PolicySpec::Asap, exp1),
    ]);
    assert_eq!(grid.axes().scenario_runs(), vec![4, 7, 8]);
    assert_eq!(scenario_runs(grid.expand()), vec![4, 7, 8]);
}

proptest! {
    #[test]
    fn lazy_count_ordering_and_ids_match_eager(
        seed in 0u64..1_000_000_000,
        seeds_as_list in any::<bool>(),
        axes in (1usize..4, 1usize..5, 1usize..6),
        options in (0usize..4, 0usize..3, 0usize..3),
        inject_panic in any::<bool>(),
    ) {
        let (seeds, workloads, policies) = axes;
        let (faults, capacities, resilient) = options;
        let counts = [seeds, workloads, policies, faults, capacities, resilient];
        let mut spec = grid_spec(seed, seeds_as_list, counts);
        spec.inject_panic = inject_panic.then_some(true);
        prop_assert_eq!(spec.total_jobs(), spec.axes().len());
        decoder_matches_reference(spec.axes(), &[])?;
    }

    #[test]
    fn job_grid_lazy_count_ordering_and_ids_match_eager(
        seed in 0u64..1_000_000_000,
        outer in (1usize..5, 1usize..6, 0usize..3, 0usize..3),
        inner in (0usize..3, 0usize..3, 0usize..3, 0usize..3),
        extra in 0usize..3,
    ) {
        let (workloads, policies, devices, storages) = outer;
        let (predictors, betas, paths, capacities) = inner;
        let grid = job_grid(
            seed,
            [workloads, policies, devices, storages, predictors, betas, paths, capacities, extra],
        );
        prop_assert_eq!(grid.expand(), grid.axes().expand());
        decoder_matches_reference(grid.axes(), &[])?;
    }

    #[test]
    fn random_access_agrees_with_iteration(
        seed in 0u64..1_000_000_000,
        axes in (1usize..6, 0usize..4, 0usize..4, 0usize..3),
        probes in prop::collection::vec(0u64..1_000_000, 3..8),
    ) {
        let (policies, faults, devices, extra) = axes;
        let spec = grid_spec(seed, false, [2, 2, policies, faults, 2, 2]);
        decoder_matches_reference(spec.axes(), &probes)?;
        let grid = job_grid(seed, [2, policies, devices, 2, 1, 1, 2, 1, extra]);
        decoder_matches_reference(grid.axes(), &probes)?;
    }
}
