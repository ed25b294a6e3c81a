//! Parameter sweeps (ablation studies beyond the paper's tables):
//!
//! * `--capacity` — fuel vs storage capacity: where FC-DPM's advantage
//!   over ASAP-DPM saturates and where it collapses;
//! * `--rho` — sensitivity to the idle-prediction factor ρ;
//! * `--beta` — the efficiency-slope ablation: β → 0 removes the
//!   convexity that FC-DPM exploits, collapsing its advantage to the
//!   equal-energy case (Section 3.2's observation);
//! * `--levels` — quantized FC output levels vs the continuous planner;
//! * `--buffer-loss` — charger/discharger path efficiency.
//!
//! With no arguments, all sweeps run. Each sweep is a [`JobGrid`] axis
//! executed on the [`fcdpm_runner`] worker pool; the CSV rows are
//! computed from the manifest records (policies vary fastest in the
//! expansion, so each axis value owns one contiguous chunk of records).

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    reason = "binaries and tests may panic"
)]

use fcdpm_runner::{
    run_grid, JobGrid, JobMetrics, JobOutcome, PolicySpec, PredictorSpec, RunConfig, WorkloadSpec,
};

/// The reference seed reproducing `Scenario::experiment1()`.
const SEED: u64 = 0xDAC0_2007;

/// mA·min per A·s (the sweep axes are specified in A·s).
fn mamin(amp_seconds: f64) -> f64 {
    amp_seconds * 1000.0 / 60.0
}

fn metrics(manifest: &fcdpm_runner::RunManifest, index: usize) -> &JobMetrics {
    match &manifest.records[index].outcome {
        JobOutcome::Completed(m) => m,
        other => panic!(
            "job {} did not complete: {other:?}",
            manifest.records[index].id
        ),
    }
}

fn sweep_capacity(config: &RunConfig) {
    println!("# sweep: storage capacity (A*s) vs normalized fuel");
    println!("capacity_as,asap_vs_conv,fcdpm_vs_conv,fc_saving_vs_asap");
    let caps_as = [0.5, 1.0, 2.0, 4.0, 6.0, 12.0, 24.0, 60.0, 200.0];
    let mut grid = JobGrid::new(
        vec![PolicySpec::Conv, PolicySpec::Asap, PolicySpec::FcDpm],
        vec![WorkloadSpec::Experiment1(SEED)],
    );
    grid.capacities_mamin = Some(caps_as.iter().map(|&c| mamin(c)).collect());
    let manifest = run_grid(&grid, config);
    for (i, cap) in caps_as.iter().enumerate() {
        let conv = metrics(&manifest, 3 * i);
        let asap = metrics(&manifest, 3 * i + 1);
        let fc = metrics(&manifest, 3 * i + 2);
        // Ratios of mean stack current, i.e. `SimMetrics::normalized_fuel`:
        // durations differ slightly across sleep policies, so raw fuel
        // totals would not compare fairly.
        println!(
            "{:.1},{:.3},{:.3},{:.3}",
            cap,
            asap.mean_stack_current_a / conv.mean_stack_current_a,
            fc.mean_stack_current_a / conv.mean_stack_current_a,
            1.0 - fc.mean_stack_current_a / asap.mean_stack_current_a
        );
    }
}

fn sweep_rho(config: &RunConfig) {
    println!("# sweep: idle-prediction factor rho vs FC-DPM normalized fuel");
    println!("rho,fcdpm_vs_conv,sleeps");
    let rhos = [0.0, 0.25, 0.5, 0.75, 0.9, 1.0];
    let mut grid = JobGrid::new(
        vec![PolicySpec::Conv, PolicySpec::FcDpm],
        vec![WorkloadSpec::Experiment1(SEED)],
    );
    grid.predictors = Some(
        rhos.iter()
            .map(|&r| PredictorSpec::Exponential(r))
            .collect(),
    );
    let manifest = run_grid(&grid, config);
    for (i, rho) in rhos.iter().enumerate() {
        let conv = metrics(&manifest, 2 * i);
        let fc = metrics(&manifest, 2 * i + 1);
        println!(
            "{:.2},{:.3},{}",
            rho,
            fc.mean_stack_current_a / conv.mean_stack_current_a,
            fc.sleeps
        );
    }
}

fn sweep_beta(config: &RunConfig) {
    println!("# sweep: efficiency slope beta vs FC-DPM saving over ASAP");
    println!("beta,fc_saving_vs_asap");
    let betas = [0.0, 0.03, 0.07, 0.13, 0.2, 0.26];
    let mut grid = JobGrid::new(
        vec![PolicySpec::Asap, PolicySpec::FcDpm],
        vec![WorkloadSpec::Experiment1(SEED)],
    );
    grid.betas = Some(betas.to_vec());
    let manifest = run_grid(&grid, config);
    for (i, beta) in betas.iter().enumerate() {
        let asap = metrics(&manifest, 2 * i);
        let fc = metrics(&manifest, 2 * i + 1);
        println!(
            "{:.2},{:.3}",
            beta,
            1.0 - fc.mean_stack_current_a / asap.mean_stack_current_a
        );
    }
    println!("# beta = 0 (constant efficiency) should show ~zero saving:");
    println!("# without convexity, averaging the FC output buys nothing.");
}

fn sweep_levels(config: &RunConfig) {
    println!("# sweep: discrete FC output levels vs FC-DPM fuel penalty");
    println!("levels,fcdpm_mean_i_fc_a,penalty_vs_continuous");
    let counts = [2usize, 3, 4, 6, 8, 12, 23];
    let mut policies = vec![PolicySpec::FcDpm];
    policies.extend(counts.iter().map(|&c| PolicySpec::Quantized(c)));
    let grid = JobGrid::new(policies, vec![WorkloadSpec::Experiment1(SEED)]);
    let manifest = run_grid(&grid, config);
    let base = metrics(&manifest, 0).mean_stack_current_a;
    println!("continuous,{base:.4},0.000");
    for (i, count) in counts.iter().enumerate() {
        let rate = metrics(&manifest, i + 1).mean_stack_current_a;
        println!("{count},{rate:.4},{:.3}", rate / base - 1.0);
    }
    println!("# multi-level hardware (the ISLPED'06 configuration) needs only");
    println!("# a handful of levels before the quantization penalty vanishes.");
}

fn sweep_buffer_loss(config: &RunConfig) {
    println!("# sweep: charger/discharger path efficiency vs FC-DPM fuel");
    println!("path_efficiency,fcdpm_mean_i_fc_a");
    let etas = [1.0, 0.95, 0.9, 0.85, 0.8];
    let mut grid = JobGrid::new(
        vec![PolicySpec::FcDpm],
        vec![WorkloadSpec::Experiment1(SEED)],
    );
    grid.buffer_path_efficiencies = Some(etas.to_vec());
    let manifest = run_grid(&grid, config);
    for (i, eta) in etas.iter().enumerate() {
        let m = metrics(&manifest, i);
        println!("{eta:.2},{:.4}", m.mean_stack_current_a);
    }
    println!("# the paper assumes lossless charger/discharger paths (Figure 1);");
    println!("# this quantifies the optimism of that assumption.");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = RunConfig::default();
    let all = args.is_empty();
    if all || args.iter().any(|a| a == "--capacity") {
        sweep_capacity(&config);
    }
    if all || args.iter().any(|a| a == "--rho") {
        sweep_rho(&config);
    }
    if all || args.iter().any(|a| a == "--beta") {
        sweep_beta(&config);
    }
    if all || args.iter().any(|a| a == "--levels") {
        sweep_levels(&config);
    }
    if all || args.iter().any(|a| a == "--buffer-loss") {
        sweep_buffer_loss(&config);
    }
}
