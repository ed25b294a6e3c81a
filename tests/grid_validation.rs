//! Load-time grid validation: `JobGrid::validate` and
//! `GridSpec::validate` accept every committed example and every axis
//! the benchmark sweeps, and reject each infeasible value with a message
//! that names its field.

use std::fs;
use std::path::Path;

use fcdpm_grid::GridSpec;
use fcdpm_runner::JobGrid;

/// Parses `text` as a `GridSpec` when it has a seed axis, else as a
/// `JobGrid`, and validates it.
fn validate(text: &str) -> Result<(), String> {
    let doc: serde_json::Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    if doc.get("seeds").is_some() {
        let spec: GridSpec = serde_json::from_str(text).map_err(|e| e.to_string())?;
        spec.validate()
    } else {
        let grid: JobGrid = serde_json::from_str(text).map_err(|e| e.to_string())?;
        grid.validate()
    }
}

/// A `JobGrid` with one extra job whose fields are `extra`.
fn extra_job(extra: &str) -> String {
    format!(
        r#"{{"policies": ["Conv"], "workloads": [{{"Experiment1": 1}}],
            "extra_jobs": [{{"policy": "FcDpm", "workload": {{"Experiment1": 1}}, {extra}}}]}}"#
    )
}

/// A `JobGrid` whose one extra job carries a fault schedule of `events`.
fn faults(events: &str) -> String {
    extra_job(&format!(r#""faults": {{"seed": 1, "events": [{events}]}}"#))
}

#[test]
fn dvs_and_the_benchmark_sweep_axes_validate() {
    let dvs_grid = r#"{"policies": ["FcDpm"], "workloads": [{"Dvs": 3670024199}]}"#;
    assert_eq!(validate(dvs_grid), Ok(()));
    let dvs_spec = r#"{"seeds": {"List": [1, 2]}, "workloads": ["Dvs"], "policies": ["Conv"]}"#;
    assert_eq!(validate(dvs_spec), Ok(()));
    let sweep = r#"{
        "policies": ["Conv", "Asap", "FcDpm", "WindowedAverage", {"Quantized": 12}],
        "workloads": [{"Experiment1": 1}, {"Experiment2": 1}, {"Dvs": 1}],
        "storages": ["Ideal", "SuperCapacitor", "Kibam"],
        "predictors": ["LastValue", {"Regression": 8}, "LearningTree", "Oracle"],
        "extra_jobs": [{"policy": "WindowedAverage", "workload": {"MultiDevice": 1}}]}"#;
    assert_eq!(validate(sweep), Ok(()));
}

#[test]
fn empty_policies_or_workloads_are_rejected() {
    for (text, field) in [
        (
            r#"{"policies": [], "workloads": [{"Experiment1": 1}]}"#,
            "policies",
        ),
        (r#"{"policies": ["Conv"], "workloads": []}"#, "workloads"),
        (
            r#"{"seeds": {"List": [1]}, "workloads": ["Experiment1"], "policies": []}"#,
            "policies",
        ),
    ] {
        let err = validate(text).expect_err(text);
        assert!(err.starts_with(&format!("{field}: ")), "{err}");
        assert!(err.contains("zero jobs"), "{err}");
    }
}

#[test]
fn feasible_grids_validate() {
    for text in [
        r#"{"policies": ["Conv", "Asap", "FcDpm", {"Quantized": 4}, {"Constant": 0.6}],
            "workloads": [{"Experiment1": 3670024199}],
            "betas": [0.13, 0.2],
            "capacities_mamin": [50.0, 100.0],
            "buffer_path_efficiencies": [1.0, 0.9],
            "extra_jobs": [{"policy": "FcDpm", "workload": {"Experiment1": 1}, "inject_panic": true}]}"#,
        &extra_job(
            r#""resilient": true, "faults": {"seed": 1, "events": [
                {"at_s": 200.0, "kind": {"FuelStarvation": {"until_s": 740.0, "max_a": 0.47}}},
                {"at_s": 400.0, "kind": {"StorageFade": {"capacity_scale": 0.6}}},
                {"at_s": 900.0, "kind": {"PredictorNoise": {"until_s": 1300.0, "magnitude": 0.3}}}]}"#,
        ),
        r#"{"name": "fleet",
            "seeds": {"Range": {"start": 3670024199, "count": 50}},
            "workloads": ["Experiment1", "MultiDevice"],
            "policies": ["Conv", "FcDpm", {"Constant": 0.6}],
            "faults": ["None", "Starvation", "Combined"],
            "capacities_mamin": [50.0, 100.0],
            "resilient": [false, true]}"#,
    ] {
        assert_eq!(validate(text), Ok(()), "{text}");
    }
}

#[test]
fn each_infeasible_value_is_rejected_naming_its_field() {
    let job_grid = |axes: &str| {
        format!(r#"{{"policies": ["Conv"], "workloads": [{{"Experiment1": 1}}], {axes}}}"#)
    };
    let grid_spec = |axes: &str| {
        format!(r#"{{"seeds": {{"List": [1]}}, "workloads": ["Experiment1"], {axes}}}"#)
    };
    let cases: Vec<(String, &str, &str)> = vec![
        (
            r#"{"policies": [{"Constant": 5.0}], "workloads": [{"Experiment1": 1}]}"#.to_owned(),
            "policies: ",
            "load-following range",
        ),
        (
            r#"{"policies": [{"Quantized": 1}], "workloads": [{"Experiment1": 1}]}"#.to_owned(),
            "policies: ",
            "at least 2 output levels",
        ),
        (
            job_grid(r#""predictors": [{"Regression": 0}]"#),
            "predictors: ",
            "at least 1 sample",
        ),
        (
            job_grid(r#""predictors": [{"Exponential": 1.5}]"#),
            "predictors: ",
            "outside [0, 1]",
        ),
        (
            extra_job(r#""predictor": {"Exponential": -0.2}"#),
            "extra_jobs[0].predictor: ",
            "outside [0, 1]",
        ),
        (job_grid(r#""betas": [0.5]"#), "betas: ", "non-positive"),
        (job_grid(r#""betas": [-0.1]"#), "betas: ", "non-negative"),
        (
            job_grid(r#""capacities_mamin": [1.0]"#),
            "capacities_mamin: ",
            "one sleep transition",
        ),
        (
            job_grid(r#""buffer_path_efficiencies": [1.5]"#),
            "buffer_path_efficiencies: ",
            "(0, 1]",
        ),
        (
            extra_job(r#""buffer_path_efficiency": 1.5"#),
            "extra_jobs[0].buffer_path_efficiency: ",
            "(0, 1]",
        ),
        (
            extra_job(r#""capacity_mamin": 10.0"#),
            "extra_jobs[0].capacity_mamin: ",
            "one sleep transition",
        ),
        (extra_job(r#""beta": 0.5"#), "extra_jobs[0].beta: ", "non-positive"),
        (
            job_grid(r#""extra_jobs": [{"policy": {"Constant": 0.05}, "workload": {"Experiment1": 1}}]"#),
            "extra_jobs[0].policy: ",
            "load-following range",
        ),
        (
            faults(r#"{"at_s": 200.0, "kind": {"FuelStarvation": {"until_s": 740.0, "max_a": 0.05}}}"#),
            "extra_jobs[0].faults: ",
            "below the load-following minimum",
        ),
        (
            faults(r#"{"at_s": -5.0, "kind": {"FuelStarvation": {"until_s": 740.0, "max_a": 0.47}}}"#),
            "extra_jobs[0].faults: ",
            "at_s must be finite and non-negative",
        ),
        (
            faults(r#"{"at_s": 50.0, "kind": {"PredictorDropout": {"until_s": 10.0}}}"#),
            "extra_jobs[0].faults: ",
            "until_s must be finite and at or after at_s",
        ),
        (
            faults(r#"{"at_s": 10.0, "kind": {"EfficiencyFade": {"alpha_scale": 1.5, "beta_scale": 1.0}}}"#),
            "extra_jobs[0].faults: ",
            "alpha_scale must be in (0, 1]",
        ),
        (
            faults(r#"{"at_s": 10.0, "kind": {"EfficiencyFade": {"alpha_scale": 0.9, "beta_scale": 0.5}}}"#),
            "extra_jobs[0].faults: ",
            "beta_scale must be at least 1",
        ),
        (
            faults(r#"{"at_s": 10.0, "kind": {"StorageFade": {"capacity_scale": 0.0}}}"#),
            "extra_jobs[0].faults: ",
            "capacity_scale must be in (0, 1]",
        ),
        (
            faults(r#"{"at_s": 10.0, "kind": {"PredictorNoise": {"until_s": 20.0, "magnitude": 1.0}}}"#),
            "extra_jobs[0].faults: ",
            "magnitude must be in [0, 1)",
        ),
        (
            grid_spec(r#""policies": [{"Constant": 1.3}]"#),
            "policies: ",
            "load-following range",
        ),
        (
            grid_spec(r#""policies": ["Conv"], "capacities_mamin": [10.0]"#),
            "capacities_mamin: ",
            "one sleep transition",
        ),
        (
            grid_spec(r#""policies": ["Conv"], "capacities_mamin": [-1.0]"#),
            "capacities_mamin: ",
            "positive and finite",
        ),
        (
            r#"{"seeds": {"List": []}, "workloads": ["Experiment1"], "policies": ["Conv"]}"#
                .to_owned(),
            "seeds: ",
            "no seeds",
        ),
        (
            r#"{"seeds": {"Range": {"start": 1, "count": 0}}, "workloads": ["Experiment1"], "policies": ["Conv"]}"#
                .to_owned(),
            "seeds: ",
            "no seeds",
        ),
    ];
    for (text, field, reason) in &cases {
        let err = validate(text).expect_err(text);
        assert!(err.starts_with(field), "want field {field:?}, got {err:?}");
        assert!(err.contains(reason), "want {reason:?}, got {err:?}");
    }
}

#[test]
fn malformed_documents_fail_to_load() {
    // What the static grid rule once spelled out by hand, serde now
    // rejects while parsing: unknown variants and ill-typed axes.
    for text in [
        r#"{"seeds": {"Range": {"start": 1, "count": 2}}, "workloads": ["Experiment9"], "policies": ["Conv"]}"#,
        r#"{"seeds": {"List": [1]}, "workloads": ["Experiment1"], "policies": ["Conv"], "faults": ["Meteor"]}"#,
        r#"{"seeds": {"List": [1]}, "workloads": ["Experiment1"], "policies": ["Conv"], "resilient": [1]}"#,
        r#"{"policies": [{"Turbo": 1}], "workloads": [{"Experiment1": 1}]}"#,
        &extra_job(r#""resilient": 7"#),
        &extra_job(r#""faults": {"seed": 1}"#),
        &faults(r#"{"at_s": 20.0, "kind": {"Meteor": {}}}"#),
    ] {
        assert!(validate(text).is_err(), "{text}");
    }
}

#[test]
fn every_committed_example_loads_and_validates() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples");
    let mut checked = 0;
    for entry in fs::read_dir(&dir).expect("examples/ exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "json") {
            let text = fs::read_to_string(&path).expect("example reads");
            assert_eq!(validate(&text), Ok(()), "{}", path.display());
            checked += 1;
        }
    }
    assert!(checked >= 3, "only {checked} example grids found");
}
