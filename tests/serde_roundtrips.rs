//! JSON round-trips for every serializable public data structure: a
//! derive regression anywhere in the workspace fails here.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    reason = "binaries and tests may panic"
)]

use fcdpm::core::optimizer::{Overhead, SlotPlan, SlotProfile, StorageContext};
use fcdpm::device::{SegmentKind, SleepDirective};
use fcdpm::prelude::*;
use fcdpm::workload::{LoadPoint, LoadProfile};

fn round_trip<T>(value: &T)
where
    T: serde::Serialize + serde::de::DeserializeOwned + PartialEq + std::fmt::Debug,
{
    let json = serde_json::to_string(value).expect("serializes");
    let back: T = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(&back, value, "round-trip changed the value");
}

#[test]
fn units_round_trip() {
    round_trip(&Amps::new(1.2061));
    round_trip(&Volts::new(18.2));
    round_trip(&Watts::new(14.65));
    round_trip(&Seconds::new(3.03));
    round_trip(&Charge::from_milliamp_minutes(100.0));
    round_trip(&Energy::new(192.0));
    round_trip(&Efficiency::new(0.308));
    round_trip(&fcdpm::units::CurrentRange::dac07());
}

#[test]
fn fuelcell_round_trip() {
    round_trip(&PolarizationCurve::bcs_20w());
    round_trip(&LinearEfficiency::dac07());
    round_trip(&GibbsCoefficient::dac07());
    round_trip(&HydrogenTank::from_stack_charge(Charge::new(5000.0)));
    let mut gauge = FuelGauge::new();
    gauge.consume(Amps::new(0.448), Seconds::new(30.0));
    round_trip(&gauge);
    round_trip(&PolarizationCurve::bcs_20w().point(Amps::new(1.3)));
    round_trip(
        &FcSystem::dac07_variable_fan()
            .operating_point(Amps::new(0.53))
            .expect("in range"),
    );
}

#[test]
fn storage_round_trip() {
    round_trip(&IdealStorage::dac07_supercap());
    round_trip(&SuperCapacitor::dac07());
    round_trip(&LiIonBattery::small_pack());
    round_trip(&KineticBattery::new(Charge::new(60.0), 1.0, 0.25, 0.002));
}

#[test]
fn device_round_trip() {
    round_trip(&presets::dvd_camcorder());
    round_trip(&presets::experiment2_device());
    round_trip(&PowerMode::Sleep);
    round_trip(&SleepDirective::SleepAfter(Seconds::new(3.0)));
    let spec = presets::dvd_camcorder();
    let timeline = SlotTimeline::build(
        &spec,
        Seconds::new(14.0),
        true,
        Seconds::new(3.03),
        spec.mode_current(PowerMode::Run),
    );
    round_trip(&timeline);
    round_trip(&timeline.segments()[0]);
    round_trip(&SegmentKind::WakeUp);
}

#[test]
fn workload_round_trip() {
    round_trip(&CamcorderTrace::dac07().seed(3).build());
    round_trip(&SyntheticTrace::dac07().seed(3).build());
    round_trip(&ParetoTrace::interactive().seed(3).build());
    round_trip(&TaskSlot::new(
        Seconds::new(14.0),
        Seconds::new(3.03),
        Watts::new(14.65),
    ));
    round_trip(&LoadPoint {
        duration: Seconds::new(2.0),
        current: Amps::new(0.5),
    });
    round_trip(&LoadProfile::new(
        "x",
        vec![LoadPoint {
            duration: Seconds::new(2.0),
            current: Amps::new(0.5),
        }],
    ));
    let trace = SyntheticTrace::dac07().seed(1).build();
    round_trip(&trace.stats());
}

#[test]
fn core_round_trip() {
    let profile = SlotProfile::new(
        Seconds::new(20.0),
        Amps::new(0.2),
        Seconds::new(10.0),
        Amps::new(1.2),
    )
    .expect("valid");
    round_trip(&profile);
    let storage = StorageContext::balanced(Charge::ZERO, Charge::new(200.0));
    round_trip(&storage);
    round_trip(&Overhead::new(
        true,
        Seconds::new(0.5),
        Amps::new(0.4),
        Seconds::new(0.5),
        Amps::new(0.4),
    ));
    let plan: SlotPlan = FuelOptimizer::dac07()
        .plan_slot(&profile, &storage, None)
        .expect("feasible");
    round_trip(&plan);
    round_trip(&plan.case);
}

#[test]
fn sim_round_trip() {
    let scenario = Scenario::experiment1();
    let cap = Charge::from_milliamp_minutes(100.0);
    let sim = HybridSimulator::dac07(&scenario.device);
    let mut storage = IdealStorage::new(cap, cap * 0.5);
    let mut sleep = PredictiveSleep::new(scenario.rho);
    let mut policy = ConvDpm::dac07();
    let metrics = sim
        .run(&scenario.trace, &mut sleep, &mut policy, &mut storage)
        .expect("simulation succeeds")
        .metrics;
    round_trip(&metrics);
}

#[test]
fn runner_round_trip() {
    use fcdpm_runner::{
        run_specs, JobGrid, JobSpec, PolicySpec, PredictorSpec, RunConfig, RunManifest,
        StorageSpec, WorkloadSpec,
    };

    let mut spec = JobSpec::new(PolicySpec::Quantized(6), WorkloadSpec::Experiment2(42));
    spec.storage = Some(StorageSpec::Kibam);
    spec.predictor = Some(PredictorSpec::Regression(8));
    spec.capacity_mamin = Some(50.0);
    spec.beta = Some(0.13);
    round_trip(&spec);

    let mut grid = JobGrid::new(
        vec![PolicySpec::Conv, PolicySpec::FcDpm],
        vec![WorkloadSpec::Experiment1(0xDAC0_2007)],
    );
    grid.predictors = Some(vec![PredictorSpec::Oracle, PredictorSpec::LastValue]);
    grid.buffer_path_efficiencies = Some(vec![1.0, 0.9]);
    grid.extra_jobs = Some(vec![spec]);
    round_trip(&grid);

    // A whole manifest, including a Failed record.
    let mut poison = JobSpec::new(PolicySpec::Conv, WorkloadSpec::Experiment1(1));
    poison.inject_panic = Some(true);
    let specs = vec![
        JobSpec::new(PolicySpec::Conv, WorkloadSpec::Experiment1(1)),
        poison,
    ];
    let manifest = run_specs(&specs, &RunConfig::with_workers(1));
    let json = serde_json::to_string(&manifest).expect("serializes");
    let back: RunManifest = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(
        back.deterministic_json(),
        manifest.deterministic_json(),
        "manifest round-trip changed the payload"
    );
}

#[test]
fn runner_spec_ignores_unknown_fields() {
    // Forward compatibility: a spec written by a newer version with extra
    // fields must still load (unknown fields are skipped, missing
    // optional fields default to `None`).
    use fcdpm_runner::{JobGrid, JobSpec, PolicySpec};

    let spec: JobSpec = serde_json::from_str(
        r#"{
            "policy": "FcDpm",
            "workload": { "Experiment1": 7 },
            "some_future_axis": { "nested": [1, 2, 3] }
        }"#,
    )
    .expect("parses despite the unknown field");
    assert_eq!(spec.policy, PolicySpec::FcDpm);
    assert_eq!(spec.capacity_mamin, None);

    let grid: JobGrid = serde_json::from_str(
        r#"{
            "policies": ["Conv"],
            "workloads": [{ "Experiment2": 9 }],
            "schema_version": 99
        }"#,
    )
    .expect("parses despite the unknown field");
    assert_eq!(grid.expand().len(), 1);
}

#[test]
fn dvs_round_trip() {
    use fcdpm::dvs::{DvsDevice, DvsTask};
    round_trip(&DvsDevice::quadratic_example());
    round_trip(
        &DvsTask::new(Seconds::new(2.0), Seconds::new(10.0), Seconds::new(8.0))
            .expect("valid task"),
    );
}

/// The top-level keys `value` serializes to, in order.
fn serialized_keys<T: serde::Serialize>(value: &T) -> Vec<String> {
    let json = value.to_value();
    let map = json.as_map().expect("structs serialize as maps");
    map.iter().map(|(key, _)| key.clone()).collect()
}

/// A named field and an edit that changes it.
type Perturbation<T> = (&'static str, fn(&mut T));

/// Checks a digest-keyed struct's manifests against its serialized
/// form and a per-field perturbation table: every serialized key is in
/// exactly one of `folded` and `masked` (the vendored serde writes
/// every field, `null` for `None`), the table perturbs each key once,
/// and a perturbation moves `digest` exactly when its field is folded.
fn check_digest_keys<T: Clone + serde::Serialize>(
    base: &T,
    folded: &[&str],
    masked: &[&str],
    perturbations: &[Perturbation<T>],
    digest: fn(&T) -> u64,
) {
    use std::collections::BTreeSet;

    let folded_set: BTreeSet<&str> = folded.iter().copied().collect();
    let masked_set: BTreeSet<&str> = masked.iter().copied().collect();
    assert_eq!(folded_set.len(), folded.len(), "duplicate folded field");
    assert_eq!(masked_set.len(), masked.len(), "duplicate masked field");
    assert!(
        folded_set.is_disjoint(&masked_set),
        "{folded:?} and {masked:?} overlap"
    );
    let manifest: BTreeSet<&str> = folded_set.union(&masked_set).copied().collect();

    let keys = serialized_keys(base);
    let serialized: BTreeSet<&str> = keys.iter().map(String::as_str).collect();
    assert_eq!(
        serialized, manifest,
        "serialized keys must equal the folded and masked fields"
    );
    let perturbed: Vec<&str> = perturbations.iter().map(|(name, _)| *name).collect();
    let perturbed_set: BTreeSet<&str> = perturbed.iter().copied().collect();
    assert_eq!(
        perturbed_set.len(),
        perturbed.len(),
        "field perturbed twice"
    );
    assert_eq!(
        perturbed_set, manifest,
        "every field needs one perturbation"
    );

    let base_json = serde_json::to_string(base).expect("serializes");
    for (name, perturb) in perturbations {
        let mut changed = base.clone();
        perturb(&mut changed);
        assert_ne!(
            serde_json::to_string(&changed).expect("serializes"),
            base_json,
            "perturbing `{name}` must change the spec"
        );
        assert_eq!(
            digest(&changed) != digest(base),
            folded_set.contains(name),
            "`{name}`: the digest must move exactly when the field is folded"
        );
    }
}

#[test]
fn digest_manifests_match_the_serialized_fields() {
    use fcdpm_faults::FaultSchedule;
    use fcdpm_grid::gen::{GRIDSPEC_DIGEST_FIELDS, GRIDSPEC_DIGEST_MASK};
    use fcdpm_grid::{FaultPreset, GridSpec, SeedAxis, WorkloadKind};
    use fcdpm_runner::spec::{JOBSPEC_DIGEST_FIELDS, JOBSPEC_DIGEST_MASK};
    use fcdpm_runner::{
        spec_digest, DevicePreset, JobSpec, PolicySpec, PredictorSpec, StorageSpec, WorkloadSpec,
    };

    let grid = GridSpec::new(
        SeedAxis::List(vec![1, 2]),
        vec![WorkloadKind::Experiment1],
        vec![PolicySpec::Conv],
    );
    let grid_perturbations: [Perturbation<GridSpec>; 8] = [
        ("name", |g| g.name = Some("renamed".into())),
        ("seeds", |g| g.seeds = SeedAxis::List(vec![3])),
        ("workloads", |g| g.workloads.push(WorkloadKind::Experiment2)),
        ("policies", |g| g.policies.push(PolicySpec::FcDpm)),
        ("faults", |g| g.faults = Some(vec![FaultPreset::Fade])),
        ("capacities_mamin", |g| {
            g.capacities_mamin = Some(vec![50.0])
        }),
        ("resilient", |g| g.resilient = Some(vec![true])),
        ("inject_panic", |g| g.inject_panic = Some(true)),
    ];
    check_digest_keys(
        &grid,
        GRIDSPEC_DIGEST_FIELDS,
        GRIDSPEC_DIGEST_MASK,
        &grid_perturbations,
        GridSpec::digest,
    );

    let job = JobSpec::new(PolicySpec::Conv, WorkloadSpec::Experiment1(1));
    let job_perturbations: [Perturbation<JobSpec>; 11] = [
        ("policy", |j| j.policy = PolicySpec::FcDpm),
        ("workload", |j| j.workload = WorkloadSpec::Experiment1(2)),
        ("device", |j| j.device = Some(DevicePreset::DvdCamcorder)),
        ("storage", |j| j.storage = Some(StorageSpec::Kibam)),
        ("predictor", |j| j.predictor = Some(PredictorSpec::Oracle)),
        ("capacity_mamin", |j| j.capacity_mamin = Some(50.0)),
        ("beta", |j| j.beta = Some(0.2)),
        ("buffer_path_efficiency", |j| {
            j.buffer_path_efficiency = Some(0.9);
        }),
        ("faults", |j| j.faults = Some(FaultSchedule::none(1))),
        ("resilient", |j| j.resilient = Some(true)),
        ("inject_panic", |j| j.inject_panic = Some(true)),
    ];
    check_digest_keys(
        &job,
        JOBSPEC_DIGEST_FIELDS,
        JOBSPEC_DIGEST_MASK,
        &job_perturbations,
        spec_digest,
    );
}
