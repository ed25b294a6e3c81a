//! Predictor ablation: FC-DPM with the exponential-average predictor of
//! the paper versus last-value, sliding-window regression, the adaptive
//! learning tree, and the clairvoyant oracle. Also reports the offline
//! per-slot optimum and the global convex lower bound, sandwiching every
//! online variant.
//!
//! The online predictor table runs as a [`JobGrid`] predictor axis on
//! the [`fcdpm_runner`] worker pool; the oracle policy (which needs
//! whole-trace period knowledge, not just a sleep oracle) and the
//! offline bounds stay direct calls — they are not expressible as a
//! [`fcdpm_runner::JobSpec`].

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    reason = "binaries and tests may panic"
)]

use fcdpm_core::dpm::SleepPolicy;
use fcdpm_core::offline::{global_lower_bound, plan_trace};
use fcdpm_core::policy::FcDpm;
use fcdpm_core::FuelOptimizer;
use fcdpm_runner::{
    run_grid, JobGrid, JobMetrics, JobOutcome, PolicySpec, PredictorSpec, RunConfig, WorkloadSpec,
};
use fcdpm_sim::fixture::{reference_capacity, storage_at};
use fcdpm_sim::{HybridSimulator, SimMetrics};
use fcdpm_units::Charge;
use fcdpm_workload::Scenario;

/// The reference seed reproducing `Scenario::experiment1()`.
const SEED: u64 = 0xDAC0_2007;

fn run_with_sleep(
    scenario: &Scenario,
    capacity: Charge,
    sleep: &mut dyn SleepPolicy,
    policy: &mut FcDpm,
) -> SimMetrics {
    let sim = HybridSimulator::dac07(&scenario.device);
    let mut storage = storage_at(capacity);
    sim.run(&scenario.trace, sleep, policy, &mut storage)
        .expect("simulation succeeds")
        .metrics
}

fn main() {
    let scenario = Scenario::experiment1();
    let capacity = reference_capacity();

    println!("# predictor ablation, Experiment 1, FC-DPM policy");
    println!("predictor,fuel_as,mean_i_fc_a");

    let predictors = [
        ("exponential(rho=0.5)", PredictorSpec::Exponential(0.5)),
        ("last-value", PredictorSpec::LastValue),
        ("regression(w=8)", PredictorSpec::Regression(8)),
        ("learning-tree(8-20s,6bins,d3)", PredictorSpec::LearningTree),
    ];
    let mut grid = JobGrid::new(
        vec![PolicySpec::FcDpm],
        vec![WorkloadSpec::Experiment1(SEED)],
    );
    let mut axis: Vec<PredictorSpec> = predictors.iter().map(|(_, p)| p.clone()).collect();
    // One extra job with the paper's own ρ — the misprediction baseline.
    axis.push(PredictorSpec::Exponential(scenario.rho));
    grid.predictors = Some(axis);
    let manifest = run_grid(&grid, &RunConfig::default());
    let metrics = |index: usize| -> &JobMetrics {
        match &manifest.records[index].outcome {
            JobOutcome::Completed(m) => m,
            other => panic!(
                "job {} did not complete: {other:?}",
                manifest.records[index].id
            ),
        }
    };
    for (i, (name, _)) in predictors.iter().enumerate() {
        let m = metrics(i);
        println!("{name},{:.1},{:.4}", m.fuel_as, m.mean_stack_current_a);
    }

    // Clairvoyant FC-DPM: oracle sleep + oracle period knowledge.
    let mut oracle_sleep = fcdpm_core::dpm::OracleSleep::new(scenario.trace.iter().map(|s| s.idle));
    let mut oracle_policy = FcDpm::oracle(
        FuelOptimizer::dac07(),
        &scenario.device,
        capacity,
        scenario.trace.iter().map(|s| {
            (
                s.idle,
                s.active,
                s.active_current(scenario.device.bus_voltage()),
            )
        }),
    );
    let m = run_with_sleep(&scenario, capacity, &mut oracle_sleep, &mut oracle_policy);
    println!(
        "oracle,{:.1},{:.4}",
        m.fuel.total().amp_seconds(),
        m.mean_stack_current().amps()
    );

    // Offline bounds.
    let opt = FuelOptimizer::dac07();
    let offline = plan_trace(
        &opt,
        &scenario.trace,
        &scenario.device,
        capacity,
        capacity * 0.5,
    )
    .expect("plan succeeds");
    println!(
        "offline per-slot optimum,{:.1},{:.4}",
        offline.total_fuel.amp_seconds(),
        (offline.total_fuel / offline.duration).amps()
    );
    let bound =
        global_lower_bound(&opt, &scenario.trace, &scenario.device).expect("bound computes");
    println!("global convex bound,{:.1},-", bound.amp_seconds());
    println!("# sanity: durations differ slightly across sleep policies; compare rates");

    // How much is lost to misprediction? (paper does not quantify this;
    // the ablation does.)
    let online = metrics(predictors.len());
    println!(
        "# misprediction overhead of the paper's predictor vs oracle: {:.2}%",
        (online.mean_stack_current_a / m.mean_stack_current().amps() - 1.0) * 100.0
    );
}
