//! DPM-layer ablation: how the sleep policy (the embedded-system side)
//! interacts with the FC output policy (the power-source side). Compares
//! never/always/timeout/adaptive/predictive/oracle sleep policies, all
//! under FC-DPM, on both experiments.
//!
//! The paper fixes the predictive policy and varies the FC side; this
//! ablation fixes the FC side and varies the DPM layer — quantifying the
//! claim of Section 4.1 that FC-DPM composes with "any conventional DPM
//! policy".

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    reason = "binaries and tests may panic"
)]

use fcdpm_core::dpm::{
    AdaptiveTimeoutSleep, AlwaysSleep, NeverSleep, OracleSleep, PredictiveSleep,
    ProbabilisticSleep, SleepPolicy, TimeoutSleep,
};
use fcdpm_core::FuelOptimizer;
use fcdpm_sim::fixture::{fc_dpm, reference_capacity, storage_at};
use fcdpm_sim::HybridSimulator;
use fcdpm_workload::Scenario;

fn run(scenario: &Scenario, sleep: &mut dyn SleepPolicy) -> (f64, f64, usize) {
    let capacity = reference_capacity();
    let sim = HybridSimulator::dac07(&scenario.device);
    let mut policy = fc_dpm(scenario, capacity, FuelOptimizer::dac07());
    let mut storage = storage_at(capacity);
    let m = sim
        .run(&scenario.trace, sleep, &mut policy, &mut storage)
        .expect("simulation succeeds")
        .metrics;
    (
        m.mean_stack_current().amps(),
        m.task_latency.seconds() / m.slots as f64,
        m.sleeps,
    )
}

fn report(scenario: &Scenario) {
    println!(
        "# {} — FC-DPM under different sleep policies",
        scenario.name
    );
    println!("sleep_policy,mean_i_fc_a,mean_task_latency_s,sleeps");
    let t_be = scenario.device.break_even_time();
    let entries: Vec<(&str, Box<dyn SleepPolicy>)> = vec![
        ("never", Box::new(NeverSleep)),
        ("always", Box::new(AlwaysSleep)),
        ("timeout(t_be)", Box::new(TimeoutSleep::break_even())),
        ("timeout(2*t_be)", Box::new(TimeoutSleep::new(t_be * 2.0))),
        (
            "adaptive-timeout",
            Box::new(AdaptiveTimeoutSleep::with_defaults()),
        ),
        (
            "probabilistic",
            Box::new(ProbabilisticSleep::new(&scenario.device, 256, 4)),
        ),
        (
            "predictive(rho=0.5)",
            Box::new(PredictiveSleep::new(scenario.rho)),
        ),
        (
            "oracle",
            Box::new(OracleSleep::new(scenario.trace.iter().map(|s| s.idle))),
        ),
    ];
    for (name, mut sleep) in entries {
        let (i_fc, latency, sleeps) = run(scenario, sleep.as_mut());
        println!("{name},{i_fc:.4},{latency:.2},{sleeps}");
    }
    println!();
}

fn main() {
    report(&Scenario::experiment1());
    report(&Scenario::experiment2());
    println!("# reading guide: fuel (mean I_fc) falls as sleeps become better");
    println!("# timed; latency rises with every sleep taken (the wake-up tax).");
}
