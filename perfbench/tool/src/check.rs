//! Output checks: the CLI's artifacts against a serial `execute` fold
//! over the same generated inputs.

use crate::spans::quantile;
use fcdpm_grid::{GridAggregate, GridSpec};
use fcdpm_runner::{
    execute, JobGrid, JobOutcome, JobSpec, PolicySpec, RunAggregates, RunManifest, WorkloadSpec,
};

/// The paper's reference trace seed.
pub const REFERENCE_SEED: u64 = 0xDAC0_2007;

/// Table 2's FC-DPM fuel rate as a share of Conv-DPM's (30.8 %), the
/// value `tests/paper_numbers.rs` and README pin, and the tolerance of
/// its last printed digit.
const TABLE_2_FC_OVER_CONV: f64 = 0.308;
const TABLE_2_TOLERANCE: f64 = 0.0005;

/// Relative tolerance for totals, whose summation order differs between
/// the engine (per shard, then across shards) and a serial fold.
const TOTAL_RTOL: f64 = 1e-9;

/// Checks a grid run's `aggregate.json` against a serial fold of
/// `execute` over `spec.iter()`: counts and quantiles exactly, totals to
/// 1e-9 relative.
pub fn fleet(spec: &GridSpec, aggregate: &GridAggregate) -> Result<String, String> {
    let (mut completed, mut failed) = (0u64, 0u64);
    let (mut fuel, mut deficit) = (Vec::new(), Vec::new());
    let (mut fuel_total, mut deficit_total, mut sim_time, mut current_sum) = (0.0, 0.0, 0.0, 0.0);
    let (mut stepped, mut coalesced, mut consultations) = (0u64, 0u64, 0u64);
    for (_, job) in spec.iter() {
        match execute(&job) {
            Ok(m) => {
                completed += 1;
                fuel.push(m.fuel_as);
                deficit.push(m.deficit_time_s);
                fuel_total += m.fuel_as;
                deficit_total += m.deficit_time_s;
                sim_time += m.duration_s;
                current_sum += m.mean_stack_current_a;
                stepped += m.chunks_stepped;
                coalesced += m.chunks_coalesced;
                consultations += m.policy_consultations;
            }
            Err(_) => failed += 1,
        }
    }
    let a = aggregate;
    let counts = [
        ("jobs", a.jobs, spec.total_jobs()),
        ("completed", a.completed, completed),
        ("failed", a.failed, failed),
        ("timed_out", a.timed_out, 0),
        ("quarantined", a.quarantined, 0),
        ("chunks_stepped", a.chunks_stepped, stepped),
        ("chunks_coalesced", a.chunks_coalesced, coalesced),
        (
            "policy_consultations",
            a.policy_consultations,
            consultations,
        ),
    ];
    // Nearest-rank, as the engine defines its quantiles: each is one
    // job's value, so it must match bit for bit.
    let quantiles = [
        ("fuel_p50_as", a.fuel_p50_as, quantile(&fuel, 0.50)),
        ("fuel_p99_as", a.fuel_p99_as, quantile(&fuel, 0.99)),
        ("deficit_p50_s", a.deficit_p50_s, quantile(&deficit, 0.50)),
        ("deficit_p99_s", a.deficit_p99_s, quantile(&deficit, 0.99)),
    ];
    let mean_current = current_sum / completed.max(1) as f64;
    let totals = [
        ("total_fuel_as", a.total_fuel_as, fuel_total),
        (
            "total_deficit_time_s",
            a.total_deficit_time_s,
            deficit_total,
        ),
        ("total_sim_time_s", a.total_sim_time_s, sim_time),
        ("mean_stack_current_a", a.mean_stack_current_a, mean_current),
    ];
    let mut problems: Vec<String> = counts
        .iter()
        .filter(|(_, got, want)| got != want)
        .map(|(label, got, want)| format!("{label}: aggregate {got} vs serial {want}"))
        .collect();
    problems.extend(
        quantiles
            .iter()
            .filter(|(_, got, want)| got.to_bits() != want.to_bits())
            .chain(
                totals
                    .iter()
                    .filter(|(_, got, want)| (got - want).abs() > TOTAL_RTOL * want.abs()),
            )
            .map(|(label, got, want)| format!("{label}: aggregate {got} vs serial {want}")),
    );
    if problems.is_empty() {
        Ok(format!(
            "fleet aggregate matches a serial fold: {completed} completed, {failed} failed, fuel {fuel_total:.3} A*s"
        ))
    } else {
        Err(problems.join("; "))
    }
}

/// Fuel rate (A) of a completed job, the quantity Table 2 normalizes.
fn fuel_rate(outcome: &JobOutcome) -> Option<f64> {
    outcome.metrics().map(|m| m.fuel_as / m.duration_s)
}

/// Checks a batch manifest against a serial `execute` of `grid.expand()`
/// (specs, IDs and outcomes exactly, aggregates recomputed), and that
/// the reference-seed FC-DPM/Conv pair reproduces Table 2's 30.8 %.
pub fn sweep(grid: &JobGrid, manifest: &RunManifest) -> Result<String, String> {
    let specs = grid.expand();
    if manifest.records.len() != specs.len() {
        return Err(format!(
            "manifest holds {} records, grid expands to {}",
            manifest.records.len(),
            specs.len()
        ));
    }
    let mut problems = Vec::new();
    for (index, (job, record)) in specs.iter().zip(&manifest.records).enumerate() {
        let serial = match execute(job) {
            Ok(m) => JobOutcome::Completed(m),
            Err(message) => JobOutcome::Failed(message),
        };
        if record.index != index || record.spec != *job || record.id != job.id(index) {
            problems.push(format!("record {index}: identity differs from the grid"));
        } else if record.outcome != serial {
            problems.push(format!(
                "record {index} ({}): outcome differs from serial execute",
                record.id
            ));
        }
        if problems.len() > 5 {
            break;
        }
    }
    if manifest.aggregates != RunAggregates::from_records(&manifest.records) {
        problems.push("aggregates do not match the records".to_owned());
    }
    let rate_of = |policy: PolicySpec| {
        let reference = JobSpec::new(policy, WorkloadSpec::Experiment1(REFERENCE_SEED));
        manifest
            .records
            .iter()
            .find(|r| r.spec == reference)
            .and_then(|r| fuel_rate(&r.outcome))
    };
    let ratio = match (rate_of(PolicySpec::FcDpm), rate_of(PolicySpec::Conv)) {
        (Some(fc), Some(conv)) => fc / conv,
        _ => {
            problems.push("reference-seed FC-DPM/Conv pair missing or failed".to_owned());
            f64::NAN
        }
    };
    if ratio.is_finite() && (ratio - TABLE_2_FC_OVER_CONV).abs() > TABLE_2_TOLERANCE {
        problems.push(format!(
            "FC-DPM/Conv = {ratio:.4}, Table 2 pins {TABLE_2_FC_OVER_CONV}"
        ));
    }
    if problems.is_empty() {
        Ok(format!(
            "sweep manifest matches serial execute on {} jobs; FC-DPM/Conv = {ratio:.4} (Table 2: 0.308)",
            specs.len()
        ))
    } else {
        Err(problems.join("; "))
    }
}
