//! End-to-end robustness guarantees for seeded fault injection.
//!
//! Three contracts, checked at the runner level so the whole stack —
//! schedule expansion, mid-run application in the simulator, the
//! graceful-degradation wrapper, manifest serialization — is on the
//! hook at once:
//!
//! 1. A fault sweep is deterministic: byte-identical manifests across
//!    repeated runs and across worker counts.
//! 2. Carrying an empty schedule is behaviorally invisible: metrics are
//!    bit-identical to a run with no schedule at all.
//! 3. Under the canonical fuel-starvation window, wrapping FC-DPM in
//!    [`ResilientPolicy`](fcdpm_core::policy::ResilientPolicy) strictly
//!    reduces unserved-load time on the reference camcorder trace.
//! 4. With no fault to react to, the wrapper is invisible: over random
//!    traces of every workload family, policies, storages, predictors,
//!    capacities, β and path efficiencies, a resilient run equals the
//!    unwrapped run under full `PartialEq`, and the two share a
//!    [`run_key`].

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    reason = "binaries and tests may panic"
)]

use fcdpm_faults::FaultSchedule;
use fcdpm_runner::{
    execute, fault_sweep, run_key, run_specs, JobOutcome, JobSpec, PolicySpec, PredictorSpec,
    RunConfig, StorageSpec, WorkloadSpec,
};
use proptest::prelude::*;

const SEED: u64 = 0xDAC0_2007;

fn completed(outcome: &JobOutcome) -> &fcdpm_runner::JobMetrics {
    match outcome {
        JobOutcome::Completed(metrics) => metrics,
        other => panic!("job must complete, got {other:?}"),
    }
}

#[test]
fn fault_sweep_is_worker_invariant_and_reproducible() {
    let specs = fault_sweep(SEED, true);
    let serial = run_specs(&specs, &RunConfig::with_workers(1));
    let parallel = run_specs(&specs, &RunConfig::with_workers(4));
    let again = run_specs(&specs, &RunConfig::with_workers(4));
    assert!(serial.all_completed(), "{}", serial.summary());
    assert_eq!(
        serial.deterministic_json(),
        parallel.deterministic_json(),
        "scheduling leaked into the fault-sweep manifest"
    );
    assert_eq!(
        parallel.deterministic_json(),
        again.deterministic_json(),
        "same seed and schedules must replay byte-identically"
    );
}

#[test]
fn empty_fault_schedule_is_invisible() {
    let baseline = JobSpec::new(PolicySpec::FcDpm, WorkloadSpec::Experiment1(SEED));
    let mut carried = baseline.clone();
    carried.faults = Some(FaultSchedule::none(SEED));
    let manifest = run_specs(&[baseline, carried], &RunConfig::with_workers(1));
    let a = completed(&manifest.records[0].outcome);
    let b = completed(&manifest.records[1].outcome);
    assert_eq!(a, b, "an empty schedule changed the metrics");
    assert_eq!(a.faults_applied, 0);
    assert_eq!(a.degradations, 0);
}

#[test]
fn resilient_wrapper_strictly_reduces_starvation_brownouts() {
    let schedule = fcdpm_runner::FaultPreset::Starvation
        .schedule(SEED)
        .expect("injects");
    let mut plain = JobSpec::new(PolicySpec::FcDpm, WorkloadSpec::Experiment1(SEED));
    plain.faults = Some(schedule);
    let mut wrapped = plain.clone();
    wrapped.resilient = Some(true);
    let manifest = run_specs(&[plain, wrapped], &RunConfig::with_workers(2));
    let plain = completed(&manifest.records[0].outcome);
    let wrapped = completed(&manifest.records[1].outcome);
    assert!(
        plain.deficit_time_s > 0.0,
        "the canonical starvation window must actually brown out unwrapped FC-DPM"
    );
    assert!(
        wrapped.deficit_time_s < plain.deficit_time_s,
        "resilient {} s must be strictly below unwrapped {} s",
        wrapped.deficit_time_s,
        plain.deficit_time_s
    );
    assert!(wrapped.degradations > 0, "the ladder must have engaged");
    assert!(wrapped.time_in_fallback_s > 0.0);
    assert_eq!(plain.faults_applied, 1);
    assert_eq!(wrapped.faults_applied, 1);
}

proptest! {
    /// Contracts 2 and 4, through [`run_key`], the key the fleet engine
    /// reuses outcomes by: for every policy on every workload family
    /// (profile-driven multi-device runs reject the slot policies, both
    /// wrapped and not), every storage model, predictor, capacity, β and
    /// path efficiency. Without a schedule the degradation ladder never
    /// sees the storage, so the key drops `resilient` and the wrapped
    /// run equals the unwrapped one. An empty schedule changes no
    /// unwrapped run; with it the simulator reports conditions, and the
    /// wrapped run may leave the inner policy at the depletion rail, but
    /// only by a counted degradation, so the key keeps `resilient`, as
    /// it does for an armed `inject_panic`.
    #[test]
    fn resilient_wrapper_is_invisible_without_faults(
        seed in 0u64..u64::MAX,
        workload in 0usize..4,
        policy in 0usize..6,
        levels in 2usize..16,
        amps in 0.1f64..=1.2,
        storage in 0usize..3,
        predictor in 0usize..5,
        rho in 0.0f64..=1.0,
        window in 1usize..16,
        capacity in (any::<bool>(), 40.0f64..=200.0),
        beta in (any::<bool>(), 0.05f64..=0.3),
        path_efficiency in (any::<bool>(), 0.7f64..=1.0),
    ) {
        let workload = [
            WorkloadSpec::Experiment1(seed),
            WorkloadSpec::Experiment2(seed),
            WorkloadSpec::Dvs(seed),
            WorkloadSpec::MultiDevice(seed),
        ][workload]
            .clone();
        let policy = [
            PolicySpec::Conv,
            PolicySpec::Asap,
            PolicySpec::FcDpm,
            PolicySpec::WindowedAverage,
            PolicySpec::Quantized(levels),
            PolicySpec::Constant(amps),
        ][policy]
            .clone();
        let slot_policy_on_profile = matches!(workload, WorkloadSpec::MultiDevice(_))
            && matches!(policy, PolicySpec::FcDpm | PolicySpec::Quantized(_));
        let mut plain = JobSpec::new(policy, workload);
        plain.storage = Some(
            [StorageSpec::Ideal, StorageSpec::SuperCapacitor, StorageSpec::Kibam][storage].clone(),
        );
        plain.predictor = Some(
            [
                PredictorSpec::Exponential(rho),
                PredictorSpec::LastValue,
                PredictorSpec::Regression(window),
                PredictorSpec::LearningTree,
                PredictorSpec::Oracle,
            ][predictor]
                .clone(),
        );
        plain.capacity_mamin = capacity.0.then_some(capacity.1);
        plain.beta = beta.0.then_some(beta.1);
        plain.buffer_path_efficiency = path_efficiency.0.then_some(path_efficiency.1);
        let mut wrapped = plain.clone();
        wrapped.resilient = Some(true);
        prop_assert_eq!(run_key(&wrapped), run_key(&plain), "{:?}", wrapped);
        let want = execute(&plain);
        prop_assert!(
            want.is_ok() != slot_policy_on_profile,
            "{plain:?} gives {want:?}"
        );
        prop_assert_eq!(execute(&wrapped), want.clone(), "{:?}", wrapped);

        let mut armed = wrapped.clone();
        armed.inject_panic = Some(true);
        prop_assert_eq!(run_key(&armed).resilient, Some(true), "{:?}", armed);

        plain.faults = Some(FaultSchedule::none(seed));
        wrapped.faults = plain.faults.clone();
        prop_assert_eq!(run_key(&wrapped).resilient, Some(true), "{:?}", wrapped);
        prop_assert_eq!(execute(&plain), want.clone(), "{:?}", plain);
        let got = execute(&wrapped);
        if got.as_ref().is_ok_and(|m| m.degradations == 0) {
            prop_assert_eq!(got, want, "{:?}", wrapped);
        }
    }
}
