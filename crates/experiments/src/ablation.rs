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

use std::fmt::{self, Write};

use fcdpm_core::dpm::OracleSleep;
use fcdpm_core::offline::{global_lower_bound, plan_trace};
use fcdpm_core::policy::FcDpm;
use fcdpm_core::FuelOptimizer;
use fcdpm_runner::{run_grid, JobGrid, PolicySpec, PredictorSpec, RunConfig, WorkloadSpec};
use fcdpm_sim::fixture::{reference_capacity, storage_at};
use fcdpm_sim::HybridSimulator;
use fcdpm_workload::Scenario;

use crate::{completed, EXPERIMENT1_SEED};

pub fn run(out: &mut String) -> fmt::Result {
    let scenario = Scenario::experiment1();
    let capacity = reference_capacity();

    out.push_str("# predictor ablation, Experiment 1, FC-DPM policy\n");
    out.push_str("predictor,fuel_as,mean_i_fc_a\n");

    let predictors = [
        ("exponential(rho=0.5)", PredictorSpec::Exponential(0.5)),
        ("last-value", PredictorSpec::LastValue),
        ("regression(w=8)", PredictorSpec::Regression(8)),
        ("learning-tree(8-20s,6bins,d3)", PredictorSpec::LearningTree),
    ];
    let workload = WorkloadSpec::Experiment1(EXPERIMENT1_SEED);
    let mut grid = JobGrid::new(vec![PolicySpec::FcDpm], vec![workload]);
    let mut axis: Vec<PredictorSpec> = predictors.iter().map(|(_, p)| p.clone()).collect();
    // One extra job with the paper's own ρ — the misprediction baseline.
    axis.push(PredictorSpec::Exponential(scenario.rho));
    grid.predictors = Some(axis);
    let manifest = run_grid(&grid, &RunConfig::default());
    for (i, (name, _)) in predictors.iter().enumerate() {
        let m = completed(&manifest, i);
        writeln!(out, "{name},{:.1},{:.4}", m.fuel_as, m.mean_stack_current_a)?;
    }

    // Clairvoyant FC-DPM: oracle sleep + oracle period knowledge.
    let bus = scenario.device.bus_voltage();
    let mut oracle_policy = FcDpm::oracle(
        FuelOptimizer::dac07(),
        &scenario.device,
        capacity,
        scenario
            .trace
            .iter()
            .map(|s| (s.idle, s.active, s.active_current(bus))),
    );
    let mut oracle_sleep = OracleSleep::new(scenario.trace.iter().map(|s| s.idle));
    let m = HybridSimulator::dac07(&scenario.device)
        .run(
            &scenario.trace,
            &mut oracle_sleep,
            &mut oracle_policy,
            &mut storage_at(capacity),
        )
        .expect("simulation succeeds")
        .metrics;
    let (fuel, oracle_rate) = (m.fuel.total(), m.mean_stack_current().amps());
    writeln!(out, "oracle,{:.1},{oracle_rate:.4}", fuel.amp_seconds())?;

    // Offline bounds.
    let opt = FuelOptimizer::dac07();
    let (trace, device) = (&scenario.trace, &scenario.device);
    let offline = plan_trace(&opt, trace, device, capacity, capacity * 0.5).expect("plan succeeds");
    let fuel = offline.total_fuel.amp_seconds();
    let rate = (offline.total_fuel / offline.duration).amps();
    writeln!(out, "offline per-slot optimum,{fuel:.1},{rate:.4}")?;
    let bound = global_lower_bound(&opt, trace, device).expect("bound computes");
    writeln!(out, "global convex bound,{:.1},-", bound.amp_seconds())?;
    out.push_str("# sanity: durations differ slightly across sleep policies; compare rates\n");

    // How much is lost to misprediction? (paper does not quantify this;
    // the ablation does.)
    let online = completed(&manifest, predictors.len()).mean_stack_current_a;
    let overhead = (online / oracle_rate - 1.0) * 100.0;
    writeln!(
        out,
        "# misprediction overhead of the paper's predictor vs oracle: {overhead:.2}%"
    )
}
