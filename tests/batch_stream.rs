//! `fcdpm batch` streams its manifest: records are encoded on the
//! calling thread in index order while the workers run, and each worker
//! reuses the scenario its previous job built and the sleep schedules
//! planned on it. Neither shortcut may be visible in the output — the
//! streamed file is byte-identical to
//! `RunManifest::to_json` of the same run, and a job's metrics do not
//! depend on which job ran before it on the same thread. Workers claim
//! whole scenario runs, so one worker runs every job of a scenario.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    reason = "binaries and tests may panic"
)]

use std::path::{Path, PathBuf};

use fcdpm_runner::{
    execute, BatchRun, DevicePreset, FaultPreset, JobGrid, JobRecord, JobSpec, ManifestWriter,
    PolicySpec, PredictorSpec, RunAggregates, RunConfig, RunManifest, StorageSpec, WorkloadSpec,
};

const SEED: u64 = 0xDAC0_2007;

/// A small LCG: the same sequence on every platform.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 33) % n
    }

    /// A non-empty random subset of `items`, in their order.
    fn subset<T: Clone>(&mut self, items: &[T]) -> Vec<T> {
        let mut picked: Vec<T> = items
            .iter()
            .filter(|_| self.below(2) == 0)
            .cloned()
            .collect();
        if picked.is_empty() {
            picked.push(items[self.below(items.len() as u64) as usize].clone());
        }
        picked
    }
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn tmp_of(path: &Path) -> PathBuf {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    PathBuf::from(tmp)
}

/// Runs `specs` the way `fcdpm batch` does, streaming the manifest to
/// `path`, and also collects the run as a `RunManifest`.
fn stream_to(path: &Path, specs: &[JobSpec], workers: usize) -> Result<RunManifest, String> {
    let run = BatchRun::new(specs, &RunConfig::with_workers(workers));
    let grid_digest = run.grid_digest().to_owned();
    let workers = run.workers();
    let mut writer = ManifestWriter::create(path, &grid_digest, workers)?;
    let mut records: Vec<JobRecord> = Vec::new();
    let aggregates = run.stream(|record| {
        writer.put(&record)?;
        records.push(record);
        Ok::<(), String>(())
    })?;
    let total_wall_ms = 1234;
    writer.finish(&aggregates, total_wall_ms)?;
    Ok(RunManifest {
        grid_digest,
        workers,
        records,
        aggregates,
        total_wall_ms,
    })
}

fn random_grid(rng: &mut Lcg) -> JobGrid {
    let policies = rng.subset(&[
        PolicySpec::Conv,
        PolicySpec::Asap,
        PolicySpec::FcDpm,
        PolicySpec::WindowedAverage,
        PolicySpec::Quantized(12),
        // Outside the load-following range: a failed record.
        PolicySpec::Constant(1.3),
    ]);
    let seed = rng.below(1 << 32);
    let workloads = rng.subset(&[
        WorkloadSpec::Experiment1(seed),
        WorkloadSpec::Experiment2(seed + 1),
        WorkloadSpec::Dvs(seed + 2),
        // Slot policies fail here, slot-free ones complete.
        WorkloadSpec::MultiDevice(seed + 3),
    ]);
    let mut grid = JobGrid::new(policies, workloads);
    if rng.below(2) == 0 {
        grid.devices = Some(rng.subset(&[
            DevicePreset::Default,
            DevicePreset::DvdCamcorder,
            DevicePreset::Experiment2,
        ]));
    }
    if rng.below(2) == 0 {
        grid.storages = Some(rng.subset(&[StorageSpec::Ideal, StorageSpec::Kibam]));
    }
    if rng.below(2) == 0 {
        grid.predictors = Some(rng.subset(&[PredictorSpec::LastValue, PredictorSpec::Oracle]));
    }
    let mut poison = JobSpec::new(PolicySpec::Conv, WorkloadSpec::Experiment1(SEED));
    poison.inject_panic = Some(true);
    let multi = JobSpec::new(PolicySpec::WindowedAverage, WorkloadSpec::MultiDevice(SEED));
    grid.extra_jobs = Some(rng.subset(&[poison, multi]));
    grid
}

#[test]
fn streamed_manifest_is_byte_identical_to_to_json() {
    let dir = scratch("batch-stream-bytes");
    let mut rng = Lcg(SEED);
    let mut lists: Vec<Vec<JobSpec>> = (0..8).map(|_| random_grid(&mut rng).expand()).collect();
    let empty = JobGrid::new(Vec::new(), vec![WorkloadSpec::Dvs(SEED)]).expand();
    let single = JobGrid::new(vec![PolicySpec::FcDpm], vec![WorkloadSpec::Dvs(SEED)]).expand();
    assert_eq!((empty.len(), single.len()), (0, 1));
    lists.extend([empty, single]);
    let mut failed = 0;
    for (round, specs) in lists.iter().enumerate() {
        let path = dir.join(format!("round-{round}.manifest.json"));
        let workers = 1 + round % 3;
        let manifest = stream_to(&path, specs, workers).expect("streams");
        let streamed = std::fs::read_to_string(&path).expect("manifest written");
        assert_eq!(streamed, manifest.to_json(), "round {round}");
        assert!(!tmp_of(&path).exists(), "round {round}: .tmp left behind");

        // Folded in index order while streaming, the aggregates match
        // the batch fold bit for bit.
        let folded = RunAggregates::from_records(&manifest.records);
        assert_eq!(manifest.aggregates, folded, "round {round}");
        assert_eq!(
            manifest.aggregates.total_fuel_as.to_bits(),
            folded.total_fuel_as.to_bits()
        );
        assert_eq!(
            manifest.aggregates.mean_stack_current_a.to_bits(),
            folded.mean_stack_current_a.to_bits()
        );
        let indices: Vec<usize> = manifest.records.iter().map(|r| r.index).collect();
        assert_eq!(indices, (0..specs.len()).collect::<Vec<_>>());
        failed += manifest.aggregates.failed;
        if specs.is_empty() {
            assert!(streamed.contains("\"records\": []"), "{streamed}");
        }
    }
    assert!(failed > 0, "the random grids must include failed records");
}

#[test]
fn scenario_reuse_cannot_be_observed() {
    let mut rng = Lcg(SEED ^ 0x5EED);
    // Every predictor spelling. `None` and an explicit NaN ρ both mean
    // the scenario's own ρ, but they are different keys.
    let predictors = [
        None,
        Some(PredictorSpec::Exponential(f64::NAN)),
        Some(PredictorSpec::Exponential(0.3)),
        Some(PredictorSpec::LastValue),
        Some(PredictorSpec::Regression(8)),
        Some(PredictorSpec::LearningTree),
        Some(PredictorSpec::Oracle),
    ];
    let storages = [
        StorageSpec::Ideal,
        StorageSpec::SuperCapacitor,
        StorageSpec::Kibam,
    ];
    // Fault jobs replay the fault-free schedule; the predictor faults
    // perturb its predictions per job.
    let faults = [
        (FaultPreset::None, None),
        (FaultPreset::Predictor, None),
        (FaultPreset::Combined, Some(true)),
    ];
    let mut jobs = Vec::new();
    for workload in [
        WorkloadSpec::Experiment1(SEED),
        WorkloadSpec::Experiment2(SEED),
        WorkloadSpec::Dvs(SEED),
    ] {
        for device in [
            None,
            Some(DevicePreset::DvdCamcorder),
            Some(DevicePreset::Experiment2),
        ] {
            for predictor in &predictors {
                for policy in [PolicySpec::Conv, PolicySpec::Asap, PolicySpec::FcDpm] {
                    let mut job = JobSpec::new(policy, workload.clone());
                    job.device = device.clone();
                    job.predictor = predictor.clone();
                    job.storage = Some(storages[rng.below(3) as usize].clone());
                    let (preset, resilient) = faults[rng.below(3) as usize];
                    job.faults = preset.schedule(SEED);
                    job.resilient = resilient;
                    jobs.push(job);
                }
            }
        }
    }
    // Fisher–Yates, so the thread's previous scenario is arbitrary.
    for i in (1..jobs.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        jobs.swap(i, j);
    }
    // Same workload, different device, back to back: a memo keyed on
    // the workload alone would hand the second job the first's device.
    let plain = JobSpec::new(PolicySpec::FcDpm, WorkloadSpec::Experiment1(SEED + 1));
    let mut other_device = plain.clone();
    other_device.device = Some(DevicePreset::Experiment2);
    // Same workload and device, different predictor, back to back: a
    // memo keyed on the scenario alone would hand the second job the
    // first's sleep schedule.
    let mut last_value = JobSpec::new(PolicySpec::FcDpm, WorkloadSpec::Experiment2(SEED + 1));
    last_value.predictor = Some(PredictorSpec::LastValue);
    let mut other_predictor = last_value.clone();
    other_predictor.predictor = Some(PredictorSpec::Oracle);
    // More predictors on one scenario than a worker keeps schedules,
    // twice through, so planned entries are re-planned in place.
    let many: Vec<JobSpec> = predictors
        .iter()
        .cloned()
        .chain([
            Some(PredictorSpec::Exponential(0.7)),
            Some(PredictorSpec::Regression(4)),
        ])
        .map(|predictor| {
            let mut job = JobSpec::new(PolicySpec::Asap, WorkloadSpec::Dvs(SEED + 1));
            job.predictor = predictor;
            job
        })
        .collect();
    let blocks = [
        vec![plain, other_device.clone()],
        vec![last_value, other_predictor.clone()],
        [many.clone(), many].concat(),
    ];
    for block in blocks {
        let at = rng.below(jobs.len() as u64 + 1) as usize;
        jobs.splice(at..at, block);
    }

    let one_thread: Vec<_> = jobs.iter().map(execute).collect();
    let fresh_threads: Vec<_> = jobs
        .iter()
        .map(|job| {
            let job = job.clone();
            std::thread::spawn(move || execute(&job))
                .join()
                .expect("job thread")
        })
        .collect();
    for (i, (reused, fresh)) in one_thread.iter().zip(&fresh_threads).enumerate() {
        assert_eq!(reused, fresh, "job {i}: {:?}", jobs[i]);
    }
    for second in [other_device, other_predictor] {
        let at = jobs
            .iter()
            .position(|job| *job == second)
            .expect("pair kept");
        assert_ne!(
            fresh_threads[at - 1],
            fresh_threads[at],
            "the pair must differ, or it proves nothing: {:?}",
            jobs[at]
        );
    }
}

/// At two workers a worker claims a whole scenario run, so every record
/// of one run names the same worker: each scenario is built and planned
/// once. The runs here are short enough that the pool never splits one.
#[test]
fn each_scenario_run_stays_on_one_worker() {
    let workloads: Vec<WorkloadSpec> = (0..8)
        .map(|i| match i % 3 {
            0 => WorkloadSpec::Experiment1(SEED + i),
            1 => WorkloadSpec::Experiment2(SEED + i),
            _ => WorkloadSpec::Dvs(SEED + i),
        })
        .collect();
    let mut grid = JobGrid::new(
        vec![PolicySpec::Conv, PolicySpec::Asap, PolicySpec::FcDpm],
        workloads,
    );
    grid.storages = Some(vec![StorageSpec::Ideal, StorageSpec::Kibam]);
    let specs = grid.expand();
    let runs = fcdpm_runner::scenario_runs(&specs);
    assert_eq!(runs.len(), 8, "one run per workload");
    let mut workers = Vec::new();
    let run = BatchRun::new(&specs, &RunConfig::with_workers(2));
    run.stream(|record| {
        workers.push(record.worker);
        Ok::<(), ()>(())
    })
    .expect("streams");
    let mut start = 0;
    for end in runs {
        assert!(
            workers[start..end].iter().all(|&w| w == workers[start]),
            "jobs {start}..{end} ran on workers {:?}",
            &workers[start..end]
        );
        start = end;
    }
}

#[test]
fn unserializable_record_fails_the_run_and_keeps_the_old_manifest() {
    let dir = scratch("batch-stream-nan");
    let path = dir.join("grid.manifest.json");
    std::fs::write(&path, "previous run").expect("seed manifest");
    let mut nan = JobSpec::new(PolicySpec::FcDpm, WorkloadSpec::Experiment1(SEED));
    nan.beta = Some(f64::NAN);
    let specs = [
        JobSpec::new(PolicySpec::Conv, WorkloadSpec::Experiment1(SEED)),
        nan,
        JobSpec::new(PolicySpec::Asap, WorkloadSpec::Experiment1(SEED)),
    ];
    let err = stream_to(&path, &specs, 2).expect_err("a NaN spec cannot be written");
    assert!(err.contains("record 1 does not serialize"), "{err}");
    assert_eq!(
        std::fs::read_to_string(&path).expect("reads"),
        "previous run",
        "the failed run must not touch the manifest"
    );
    assert!(!tmp_of(&path).exists(), "the failed run removes its .tmp");
}
