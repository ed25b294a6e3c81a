//! Workspace-level integration tests for the fleet-simulation engine:
//! resume byte-identity, `fcdpm batch` and `fcdpm grid run` agreeing
//! record for record through the one job-grid decoder, and the
//! bounded-memory (structure-of-arrays) guarantee.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    reason = "binaries and tests may panic"
)]

use std::path::{Path, PathBuf};

use fcdpm_grid::{
    digest_hex, read_shard, run, spec_digest, status, FaultPreset, GridConfig, GridSpec, Inventory,
    SeedAxis, SeedRange, WorkloadKind,
};
use fcdpm_runner::{JobGrid, PolicySpec, RunConfig, WorkloadSpec};

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fcdpm-grid-it-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn small_spec() -> GridSpec {
    let mut spec = GridSpec::new(
        SeedAxis::Range(SeedRange {
            start: 0xDAC0_2007,
            count: 2,
        }),
        vec![WorkloadKind::Experiment1],
        vec![PolicySpec::Conv, PolicySpec::FcDpm],
    );
    spec.faults = Some(vec![FaultPreset::None, FaultPreset::Starvation]);
    spec
}

fn read_run_bytes(dir: &Path, run_id: &str) -> Vec<(String, Vec<u8>)> {
    let run_dir = dir.join(run_id);
    let mut files: Vec<_> = std::fs::read_dir(&run_dir)
        .expect("run dir exists")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .into_string()
                .expect("utf8 name")
        })
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|name| {
            let bytes = std::fs::read(run_dir.join(&name)).expect("readable");
            (name, bytes)
        })
        .collect()
}

#[test]
fn resume_of_unchanged_grid_recomputes_nothing_and_is_byte_identical() {
    let spec = small_spec();
    let out = fresh_dir("resume");
    let mut config = GridConfig {
        workers: 2,
        shard_size: 3,
        out_dir: out.clone(),
        ..GridConfig::default()
    };

    let first = run(&spec, &config).expect("fresh run");
    assert_eq!(first.aggregate.jobs, 8);
    assert_eq!(first.aggregate.completed, 8);
    assert_eq!(first.cache_hits, 0);
    assert_eq!(first.recomputed, 8);
    let before = read_run_bytes(&out, &first.run_id);
    assert!(
        before.iter().any(|(name, _)| name == "aggregate.json"),
        "aggregate manifest is written"
    );

    config.resume = true;
    let second = run(&spec, &config).expect("resume");
    assert_eq!(
        second.run_id, first.run_id,
        "digest-derived run id is stable"
    );
    assert_eq!(second.recomputed, 0, "unchanged grid recomputes zero jobs");
    assert_eq!(second.cache_hits, 8);
    assert!((second.cache_hit_pct() - 100.0).abs() < f64::EPSILON);

    let after = read_run_bytes(&out, &second.run_id);
    assert_eq!(before, after, "every artifact byte-identical across resume");
}

#[test]
fn resume_after_axis_edit_keeps_prefix_cache_hits() {
    let out = fresh_dir("partial");
    let config = GridConfig {
        workers: 2,
        shard_size: 4,
        out_dir: out,
        run_id: Some("pinned".to_owned()),
        ..GridConfig::default()
    };
    let spec = small_spec();
    run(&spec, &config).expect("fresh run");

    // Growing the outermost (seed) axis leaves indices 0..8 decoding
    // to the exact same jobs, so the whole old run is a cache prefix
    // and only the new seed's jobs execute.
    let mut widened = spec;
    widened.seeds = SeedAxis::Range(SeedRange {
        start: 0xDAC0_2007,
        count: 3,
    });
    let resumed = run(
        &widened,
        &GridConfig {
            resume: true,
            ..config
        },
    )
    .expect("resume with wider grid");
    assert_eq!(resumed.aggregate.jobs, 12);
    assert_eq!(resumed.cache_hits, 8, "old run is a digest-matching prefix");
    assert_eq!(resumed.recomputed, 4);
    assert_eq!(resumed.aggregate.completed, 12);
}

/// Seeds × workloads × capacities × policies, spelled once as a
/// `GridSpec` and once as a `JobGrid` that lists its workloads
/// seed-major.
fn both_spellings() -> (GridSpec, JobGrid) {
    let policies = vec![PolicySpec::Conv, PolicySpec::FcDpm];
    let mut spec = GridSpec::new(
        SeedAxis::Range(SeedRange {
            start: 0xDAC0_2007,
            count: 2,
        }),
        vec![WorkloadKind::Experiment1, WorkloadKind::Dvs],
        policies.clone(),
    );
    spec.capacities_mamin = Some(vec![60.0, 100.0]);
    let mut grid = JobGrid::new(
        policies,
        vec![
            WorkloadSpec::Experiment1(0xDAC0_2007),
            WorkloadSpec::Dvs(0xDAC0_2007),
            WorkloadSpec::Experiment1(0xDAC0_2008),
            WorkloadSpec::Dvs(0xDAC0_2008),
        ],
    );
    grid.capacities_mamin = spec.capacities_mamin.clone();
    (spec, grid)
}

#[test]
fn both_spellings_decode_to_the_same_jobs() {
    let (spec, grid) = both_spellings();
    let keyed = |(index, job): (u64, fcdpm_runner::JobSpec)| {
        let id = job.id(usize::try_from(index).expect("small grid"));
        (spec_digest(&job), id, job)
    };
    let from_spec: Vec<_> = spec.iter().map(keyed).collect();
    let from_grid: Vec<_> = grid.axes().iter().map(keyed).collect();
    assert_eq!(from_spec.len(), 16);
    assert_eq!(from_spec, from_grid);
    assert_eq!(spec.validate(), grid.validate());
    // A seed list decodes in list order, exactly as the range does.
    let mut listed = spec.clone();
    listed.seeds = SeedAxis::List(vec![0xDAC0_2007, 0xDAC0_2008]);
    assert!(listed.iter().eq(spec.iter()));
}

#[test]
fn batch_records_match_the_grid_run_shards_in_order() {
    let (spec, grid) = both_spellings();
    let manifest = fcdpm_runner::run_grid(&grid, &RunConfig::with_workers(2));
    let dir = fresh_dir("batch-vs-grid");
    let grid_run = run(
        &spec,
        &GridConfig {
            workers: 2,
            shard_size: 5,
            out_dir: dir.clone(),
            ..GridConfig::default()
        },
    )
    .expect("grid run");

    let mut shard_records = Vec::new();
    let files = Inventory::read(&dir.join(&grid_run.run_id)).expect("lists shards");
    for (_, file) in files.shards() {
        shard_records.extend(read_shard(file).expect("shard reads"));
    }
    assert_eq!(manifest.records.len(), 16);
    assert_eq!(shard_records.len(), manifest.records.len());
    for (batch, shard) in manifest.records.iter().zip(&shard_records) {
        assert_eq!(batch.index as u64, shard.index);
        assert_eq!(batch.id, shard.id);
        assert_eq!(digest_hex(spec_digest(&batch.spec)), shard.digest);
        assert_eq!(batch.outcome, shard.outcome, "job {}", batch.id);
    }
}

#[test]
fn sharding_bounds_resident_jobs_and_status_sees_completion() {
    // 24 jobs through 4-job shards: at no point may more than one
    // shard's specs + outcomes be resident.
    let spec = GridSpec::new(
        SeedAxis::Range(SeedRange { start: 7, count: 6 }),
        vec![WorkloadKind::Experiment2],
        vec![
            PolicySpec::Conv,
            PolicySpec::FcDpm,
            PolicySpec::WindowedAverage,
            PolicySpec::Asap,
        ],
    );
    let out = fresh_dir("bounded");
    let run_result = run(
        &spec,
        &GridConfig {
            workers: 2,
            shard_size: 4,
            out_dir: out.clone(),
            ..GridConfig::default()
        },
    )
    .expect("run");
    assert_eq!(run_result.aggregate.jobs, 24);
    assert_eq!(run_result.aggregate.shards, 6);
    assert!(
        run_result.peak_resident_jobs <= 4,
        "peak resident jobs {} exceeds shard size",
        run_result.peak_resident_jobs
    );
    assert!(run_result.aggregate.jobs_per_sec_nominal > 0.0);

    let st = status(&out.join(&run_result.run_id)).expect("status");
    assert_eq!(st.records, 24);
    assert_eq!(st.expected_jobs, 24);
    assert_eq!(st.shards, 6);
    assert!(st.has_aggregate);
    assert!(st.is_complete());
}
