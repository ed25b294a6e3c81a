//! Parameter sweeps (ablation studies beyond the paper's tables), one
//! `# sweep:` section each, in this order:
//!
//! * storage capacity — where FC-DPM's advantage over ASAP-DPM
//!   saturates and where it collapses;
//! * the idle-prediction factor ρ;
//! * the efficiency slope β: β → 0 removes the convexity that FC-DPM
//!   exploits, collapsing its advantage to the equal-energy case
//!   (Section 3.2's observation);
//! * discrete FC output levels vs the continuous planner;
//! * charger/discharger path efficiency.
//!
//! Each sweep is a [`JobGrid`] axis executed on the [`fcdpm_runner`]
//! worker pool; the CSV rows are computed from the manifest records
//! (policies vary fastest in the expansion, so each axis value owns one
//! contiguous chunk of records).

use std::fmt::{self, Write};

use fcdpm_runner::{run_grid, JobGrid, PolicySpec, PredictorSpec, RunConfig, WorkloadSpec};

use crate::{completed, EXPERIMENT1_SEED};

/// The Experiment-1 grid over `policies`.
fn grid(policies: Vec<PolicySpec>) -> JobGrid {
    JobGrid::new(policies, vec![WorkloadSpec::Experiment1(EXPERIMENT1_SEED)])
}

/// mA·min per A·s (the sweep axes are specified in A·s).
fn mamin(amp_seconds: f64) -> f64 {
    amp_seconds * 1000.0 / 60.0
}

fn sweep_capacity(out: &mut String, config: &RunConfig) -> fmt::Result {
    out.push_str("# sweep: storage capacity (A*s) vs normalized fuel\n");
    out.push_str("capacity_as,asap_vs_conv,fcdpm_vs_conv,fc_saving_vs_asap\n");
    let caps_as = [0.5, 1.0, 2.0, 4.0, 6.0, 12.0, 24.0, 60.0, 200.0];
    let mut grid = grid(vec![PolicySpec::Conv, PolicySpec::Asap, PolicySpec::FcDpm]);
    grid.capacities_mamin = Some(caps_as.iter().map(|&c| mamin(c)).collect());
    let manifest = run_grid(&grid, config);
    for (i, cap) in caps_as.iter().enumerate() {
        // Ratios of mean stack current, i.e. `SimMetrics::normalized_fuel`:
        // durations differ slightly across sleep policies, so raw fuel
        // totals would not compare fairly.
        let rate = |job| completed(&manifest, 3 * i + job).mean_stack_current_a;
        let (conv, asap, fc) = (rate(0), rate(1), rate(2));
        let (asap_vs_conv, fc_vs_conv, saving) = (asap / conv, fc / conv, 1.0 - fc / asap);
        writeln!(
            out,
            "{cap:.1},{asap_vs_conv:.3},{fc_vs_conv:.3},{saving:.3}"
        )?;
    }
    Ok(())
}

fn sweep_rho(out: &mut String, config: &RunConfig) -> fmt::Result {
    out.push_str("# sweep: idle-prediction factor rho vs FC-DPM normalized fuel\n");
    out.push_str("rho,fcdpm_vs_conv,sleeps\n");
    let rhos = [0.0, 0.25, 0.5, 0.75, 0.9, 1.0];
    let mut grid = grid(vec![PolicySpec::Conv, PolicySpec::FcDpm]);
    grid.predictors = Some(
        rhos.iter()
            .map(|&r| PredictorSpec::Exponential(r))
            .collect(),
    );
    let manifest = run_grid(&grid, config);
    for (i, rho) in rhos.iter().enumerate() {
        let conv = completed(&manifest, 2 * i);
        let fc = completed(&manifest, 2 * i + 1);
        let fc_vs_conv = fc.mean_stack_current_a / conv.mean_stack_current_a;
        writeln!(out, "{rho:.2},{fc_vs_conv:.3},{}", fc.sleeps)?;
    }
    Ok(())
}

fn sweep_beta(out: &mut String, config: &RunConfig) -> fmt::Result {
    out.push_str("# sweep: efficiency slope beta vs FC-DPM saving over ASAP\n");
    out.push_str("beta,fc_saving_vs_asap\n");
    let betas = [0.0, 0.03, 0.07, 0.13, 0.2, 0.26];
    let mut grid = grid(vec![PolicySpec::Asap, PolicySpec::FcDpm]);
    grid.betas = Some(betas.to_vec());
    let manifest = run_grid(&grid, config);
    for (i, beta) in betas.iter().enumerate() {
        let asap = completed(&manifest, 2 * i).mean_stack_current_a;
        let fc = completed(&manifest, 2 * i + 1).mean_stack_current_a;
        writeln!(out, "{beta:.2},{:.3}", 1.0 - fc / asap)?;
    }
    out.push_str("# beta = 0 (constant efficiency) should show ~zero saving:\n");
    out.push_str("# without convexity, averaging the FC output buys nothing.\n");
    Ok(())
}

fn sweep_levels(out: &mut String, config: &RunConfig) -> fmt::Result {
    out.push_str("# sweep: discrete FC output levels vs FC-DPM fuel penalty\n");
    out.push_str("levels,fcdpm_mean_i_fc_a,penalty_vs_continuous\n");
    let counts = [2usize, 3, 4, 6, 8, 12, 23];
    let mut policies = vec![PolicySpec::FcDpm];
    policies.extend(counts.iter().map(|&c| PolicySpec::Quantized(c)));
    let manifest = run_grid(&grid(policies), config);
    let base = completed(&manifest, 0).mean_stack_current_a;
    writeln!(out, "continuous,{base:.4},0.000")?;
    for (i, count) in counts.iter().enumerate() {
        let rate = completed(&manifest, i + 1).mean_stack_current_a;
        writeln!(out, "{count},{rate:.4},{:.3}", rate / base - 1.0)?;
    }
    out.push_str("# multi-level hardware (the ISLPED'06 configuration) needs only\n");
    out.push_str("# a handful of levels before the quantization penalty vanishes.\n");
    Ok(())
}

fn sweep_buffer_loss(out: &mut String, config: &RunConfig) -> fmt::Result {
    out.push_str("# sweep: charger/discharger path efficiency vs FC-DPM fuel\n");
    out.push_str("path_efficiency,fcdpm_mean_i_fc_a\n");
    let etas = [1.0, 0.95, 0.9, 0.85, 0.8];
    let mut grid = grid(vec![PolicySpec::FcDpm]);
    grid.buffer_path_efficiencies = Some(etas.to_vec());
    let manifest = run_grid(&grid, config);
    for (i, eta) in etas.iter().enumerate() {
        let rate = completed(&manifest, i).mean_stack_current_a;
        writeln!(out, "{eta:.2},{rate:.4}")?;
    }
    out.push_str("# the paper assumes lossless charger/discharger paths (Figure 1);\n");
    out.push_str("# this quantifies the optimism of that assumption.\n");
    Ok(())
}

pub fn run(out: &mut String) -> fmt::Result {
    let config = RunConfig::default();
    sweep_capacity(out, &config)?;
    sweep_rho(out, &config)?;
    sweep_beta(out, &config)?;
    sweep_levels(out, &config)?;
    sweep_buffer_loss(out, &config)
}
