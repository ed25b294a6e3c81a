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
