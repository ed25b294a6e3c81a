//! DPM-layer ablation: how the sleep policy (the embedded-system side)
//! interacts with the FC output policy (the power-source side). Compares
//! never/always/timeout/adaptive/predictive/oracle sleep policies, all
//! under FC-DPM, on both experiments.
//!
//! The paper fixes the predictive policy and varies the FC side; this
//! ablation fixes the FC side and varies the DPM layer — quantifying the
//! claim of Section 4.1 that FC-DPM composes with "any conventional DPM
//! policy".

use std::fmt::{self, Write};

use fcdpm_core::dpm::{
    AdaptiveTimeoutSleep, AlwaysSleep, NeverSleep, OracleSleep, PredictiveSleep,
    ProbabilisticSleep, SleepPolicy, TimeoutSleep,
};
use fcdpm_core::FuelOptimizer;
use fcdpm_sim::fixture::{fc_dpm, reference_capacity, storage_at};
use fcdpm_sim::HybridSimulator;
use fcdpm_workload::Scenario;

fn simulate(scenario: &Scenario, sleep: &mut dyn SleepPolicy) -> (f64, f64, usize) {
    let capacity = reference_capacity();
    let mut policy = fc_dpm(scenario, capacity, FuelOptimizer::dac07());
    let m = HybridSimulator::dac07(&scenario.device)
        .run(
            &scenario.trace,
            sleep,
            &mut policy,
            &mut storage_at(capacity),
        )
        .expect("simulation succeeds")
        .metrics;
    let latency = m.task_latency.seconds() / m.slots as f64;
    (m.mean_stack_current().amps(), latency, m.sleeps)
}

fn report(out: &mut String, scenario: &Scenario) -> fmt::Result {
    let name = &scenario.name;
    writeln!(out, "# {name} — FC-DPM under different sleep policies")?;
    out.push_str("sleep_policy,mean_i_fc_a,mean_task_latency_s,sleeps\n");
    let t_be = scenario.device.break_even_time();
    let adaptive = AdaptiveTimeoutSleep::with_defaults();
    let probabilistic = ProbabilisticSleep::new(&scenario.device, 256, 4);
    let predictive = PredictiveSleep::new(scenario.rho);
    let oracle = OracleSleep::new(scenario.trace.iter().map(|s| s.idle));
    let entries: Vec<(&str, Box<dyn SleepPolicy>)> = vec![
        ("never", Box::new(NeverSleep)),
        ("always", Box::new(AlwaysSleep)),
        ("timeout(t_be)", Box::new(TimeoutSleep::break_even())),
        ("timeout(2*t_be)", Box::new(TimeoutSleep::new(t_be * 2.0))),
        ("adaptive-timeout", Box::new(adaptive)),
        ("probabilistic", Box::new(probabilistic)),
        ("predictive(rho=0.5)", Box::new(predictive)),
        ("oracle", Box::new(oracle)),
    ];
    for (name, mut sleep) in entries {
        let (i_fc, latency, sleeps) = simulate(scenario, sleep.as_mut());
        writeln!(out, "{name},{i_fc:.4},{latency:.2},{sleeps}")?;
    }
    writeln!(out)
}

pub fn run(out: &mut String) -> fmt::Result {
    report(out, &Scenario::experiment1())?;
    report(out, &Scenario::experiment2())?;
    out.push_str("# reading guide: fuel (mean I_fc) falls as sleeps become better\n");
    out.push_str("# timed; latency rises with every sleep taken (the wake-up tax).\n");
    Ok(())
}
