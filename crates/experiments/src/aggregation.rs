//! Idle-aggregation experiment (the procrastination idea of references
//! \[6\]\[7\] applied on top of FC-DPM): a bursty workload whose idle
//! periods sit below the break-even time gains nothing from DPM — until
//! task deferral merges the idles into sleepable stretches.

use std::fmt::{self, Write};

use fcdpm_core::dpm::PredictiveSleep;
use fcdpm_core::FuelOptimizer;
use fcdpm_sim::fixture::{fc_dpm, reference_capacity, storage_at};
use fcdpm_sim::HybridSimulator;
use fcdpm_units::{Seconds, Watts};
use fcdpm_workload::{aggregate_idles, Scenario, SyntheticTrace, Trace};

fn simulate(trace: &Trace, scenario: &Scenario) -> (f64, usize) {
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

pub fn run(out: &mut String) -> fmt::Result {
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

    let (raw_rate, raw_sleeps) = simulate(&scenario.trace, &scenario);
    out.push_str("# idle aggregation on a bursty workload (T_be = 10 s)\n");
    out.push_str("variant,mean_i_fc_a,sleeps,slots,worst_deferral_s\n");
    let slots = scenario.trace.len();
    writeln!(out, "raw,{raw_rate:.4},{raw_sleeps},{slots},0.0")?;
    for max_defer in [10.0, 20.0, 40.0] {
        let agg = aggregate_idles(&scenario.trace, Seconds::new(10.0), Seconds::new(max_defer));
        let (rate, sleeps) = simulate(&agg.trace, &scenario);
        let (slots, worst) = (agg.trace.len(), agg.worst_deferral.seconds());
        writeln!(
            out,
            "defer<={max_defer}s,{rate:.4},{sleeps},{slots},{worst:.1}"
        )?;
    }
    out.push_str("# merging sub-break-even idles unlocks SLEEP (more sleeps, lower fuel)\n");
    out.push_str("# at the price of task deferral — the classic DPM latency trade.\n");
    Ok(())
}
