//! Idle-aggregation experiment (the procrastination idea of references
//! \[6\]\[7\] applied on top of FC-DPM): a bursty workload whose idle
//! periods sit below the break-even time gains nothing from DPM — until
//! task deferral merges the idles into sleepable stretches.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    reason = "binaries and tests may panic"
)]

use fcdpm_core::dpm::PredictiveSleep;
use fcdpm_core::FuelOptimizer;
use fcdpm_sim::fixture::{fc_dpm, reference_capacity, storage_at};
use fcdpm_sim::HybridSimulator;
use fcdpm_units::{Seconds, Watts};
use fcdpm_workload::{aggregate_idles, Scenario, SyntheticTrace, Trace};

fn run(trace: &Trace, scenario: &Scenario) -> (f64, usize) {
    let capacity = reference_capacity();
    let sim = HybridSimulator::dac07(&scenario.device);
    let mut policy = fc_dpm(scenario, capacity, FuelOptimizer::dac07());
    let mut storage = storage_at(capacity);
    let mut sleep = PredictiveSleep::new(scenario.rho);
    let m = sim
        .run(trace, &mut sleep, &mut policy, &mut storage)
        .expect("simulation succeeds")
        .metrics;
    (m.mean_stack_current().amps(), m.sleeps)
}

fn main() {
    // A bursty variant of Experiment 2: idles 4–9 s, all below the
    // device's 10 s break-even time.
    let mut scenario = Scenario::experiment2();
    scenario.trace = SyntheticTrace::dac07()
        .seed(404)
        .idle_range(Seconds::new(4.0), Seconds::new(9.0))
        .active_range(Seconds::new(1.0), Seconds::new(2.0))
        .power_range(Watts::new(12.0), Watts::new(16.0))
        .horizon(Seconds::from_minutes(28.0))
        .build();

    let (raw_rate, raw_sleeps) = run(&scenario.trace, &scenario);
    println!("# idle aggregation on a bursty workload (T_be = 10 s)");
    println!("variant,mean_i_fc_a,sleeps,slots,worst_deferral_s");
    println!(
        "raw,{raw_rate:.4},{raw_sleeps},{},0.0",
        scenario.trace.len()
    );
    for max_defer in [10.0, 20.0, 40.0] {
        let agg = aggregate_idles(&scenario.trace, Seconds::new(10.0), Seconds::new(max_defer));
        let (rate, sleeps) = run(&agg.trace, &scenario);
        println!(
            "defer<={max_defer}s,{rate:.4},{sleeps},{},{:.1}",
            agg.trace.len(),
            agg.worst_deferral.seconds()
        );
    }
    println!("# merging sub-break-even idles unlocks SLEEP (more sleeps, lower fuel)");
    println!("# at the price of task deferral — the classic DPM latency trade.");
}
