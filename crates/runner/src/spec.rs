//! Declarative job specifications.
//!
//! A [`JobSpec`] pins every axis of one simulation run; a [`JobGrid`] is
//! the cartesian product of per-axis value lists plus optional one-off
//! jobs. Both are serde-serializable so whole experiment campaigns live
//! in version-controlled JSON files (see `examples/` at the repository
//! root).

use fcdpm_faults::FaultSchedule;
use serde::{Deserialize, Serialize};

use crate::check;

/// Which FC output-current policy drives the run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PolicySpec {
    /// Conv-DPM: constant worst-case stack current.
    Conv,
    /// ASAP-DPM: greedy recharge after every sleep.
    Asap,
    /// FC-DPM: the paper's fuel-optimal slot planner.
    FcDpm,
    /// Slot-free windowed averaging (multi-device capable).
    WindowedAverage,
    /// FC-DPM quantized to this many uniform output levels.
    Quantized(usize),
    /// Hold the FC at this constant output current (amps). Must lie in
    /// the load-following range `[0.1, 1.2] A`; [`JobGrid::validate`]
    /// rejects setpoints outside it at load time, and the executor
    /// fails the job.
    Constant(f64),
}

impl PolicySpec {
    /// Short lowercase label used in job IDs and reports.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            PolicySpec::Conv => "conv".to_owned(),
            PolicySpec::Asap => "asap".to_owned(),
            PolicySpec::FcDpm => "fcdpm".to_owned(),
            PolicySpec::WindowedAverage => "windowed".to_owned(),
            PolicySpec::Quantized(levels) => format!("quantized{levels}"),
            PolicySpec::Constant(amps) => format!("const{amps}"),
        }
    }
}

/// Which workload trace the run replays. The payload is the trace seed
/// (`0xDAC0_2007` reproduces the paper's reference traces).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// Experiment 1: the DVD-camcorder MPEG trace.
    Experiment1(u64),
    /// Experiment 2: the synthetic uniform workload.
    Experiment2(u64),
    /// Three DPM devices (camcorder, radio, sensor) merged into one
    /// aggregate load profile; only slot-free policies apply.
    MultiDevice(u64),
    /// A DVS platform: the quadratic-example voltage-scalable device
    /// running at its fuel-averaged optimal level, replayed as a
    /// slot-structured periodic trace (so fault schedules apply).
    Dvs(u64),
}

impl WorkloadSpec {
    /// Short label used in job IDs and reports.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            WorkloadSpec::Experiment1(seed) => format!("exp1-{seed:x}"),
            WorkloadSpec::Experiment2(seed) => format!("exp2-{seed:x}"),
            WorkloadSpec::MultiDevice(seed) => format!("multi-{seed:x}"),
            WorkloadSpec::Dvs(seed) => format!("dvs-{seed:x}"),
        }
    }
}

/// Which device spec the DPM layer manages. `Default` means the
/// workload's own reference device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DevicePreset {
    /// The device the workload was designed for.
    Default,
    /// The paper's DVD camcorder (Experiment 1 hardware).
    DvdCamcorder,
    /// The Experiment 2 reference device.
    Experiment2,
}

/// Which charge-storage model buffers the FC output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StorageSpec {
    /// Lossless ideal buffer (the paper's model).
    Ideal,
    /// Super-capacitor with a 6–12 V window and no leakage; capacitance
    /// is derived from the requested capacity.
    SuperCapacitor,
    /// Kinetic battery model (two-well), c = 0.3, k = 0.01.
    Kibam,
}

/// Which idle-period predictor feeds the sleep decision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PredictorSpec {
    /// Exponential average with this weighting factor ρ (the paper's).
    Exponential(f64),
    /// Last observed idle period.
    LastValue,
    /// Sliding-window linear regression over this many samples.
    Regression(usize),
    /// Adaptive learning tree (8–20 s, 6 bins, depth 3).
    LearningTree,
    /// Clairvoyant oracle (knows every idle period in advance).
    Oracle,
}

/// Every [`JobSpec`] field folded into the spec digest
/// (`fcdpm_grid::spec_digest` hashes the serialized spec whole, so the
/// list is exhaustive and [`JOBSPEC_DIGEST_MASK`] stays empty).
/// `fcdpm analyze`'s digest-stability pass checks the partition
/// statically: a new field fails CI until it is listed here — and the
/// author has decided, reviewably, that re-keying every cache is
/// intended.
pub const JOBSPEC_DIGEST_FIELDS: &[&str] = &[
    "policy",
    "workload",
    "device",
    "storage",
    "predictor",
    "capacity_mamin",
    "beta",
    "buffer_path_efficiency",
    "faults",
    "resilient",
    "inject_panic",
];

/// [`JobSpec`] fields excluded from the spec digest: none — job
/// identity covers every axis, including fault schedules.
pub const JOBSPEC_DIGEST_MASK: &[&str] = &[];

/// One fully pinned simulation job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// The FC output policy.
    pub policy: PolicySpec,
    /// The workload trace.
    pub workload: WorkloadSpec,
    /// The managed device (`None` = the workload's reference device).
    pub device: Option<DevicePreset>,
    /// The storage model (`None` = ideal).
    pub storage: Option<StorageSpec>,
    /// The idle predictor (`None` = the scenario's ρ with the paper's
    /// exponential average).
    pub predictor: Option<PredictorSpec>,
    /// Storage capacity in mA·min (`None` = the paper's 100).
    pub capacity_mamin: Option<f64>,
    /// Efficiency-model slope β override (`None` = the paper's fit).
    pub beta: Option<f64>,
    /// Charger/discharger path efficiency (`None` = lossless).
    pub buffer_path_efficiency: Option<f64>,
    /// Fault schedule injected mid-run (`None` = no faults; an empty
    /// schedule is behaviorally identical to `None`).
    pub faults: Option<FaultSchedule>,
    /// Wrap the FC policy in the graceful-degradation
    /// [`ResilientPolicy`](fcdpm_core::policy::ResilientPolicy) ladder
    /// (`None` = unwrapped).
    pub resilient: Option<bool>,
    /// Panic deliberately inside the executor — exercises the pool's
    /// fault isolation (used by tests and example grids).
    pub inject_panic: Option<bool>,
}

impl JobSpec {
    /// A spec with every optional axis at its default.
    #[must_use]
    pub fn new(policy: PolicySpec, workload: WorkloadSpec) -> Self {
        Self {
            policy,
            workload,
            device: None,
            storage: None,
            predictor: None,
            capacity_mamin: None,
            beta: None,
            buffer_path_efficiency: None,
            faults: None,
            resilient: None,
            inject_panic: None,
        }
    }

    /// The effective storage capacity in mA·min, defaulting to the
    /// paper's reference sizing.
    #[must_use]
    pub fn capacity_mamin_or_default(&self) -> f64 {
        self.capacity_mamin
            .unwrap_or(fcdpm_sim::fixture::REFERENCE_CAPACITY_MAMIN)
    }

    /// Deterministic job ID: the job's grid index plus an FNV-1a digest
    /// of its canonical JSON, so IDs are stable across runs and worker
    /// counts but change whenever the spec itself changes.
    #[must_use]
    pub fn id(&self, index: usize) -> String {
        let canonical = serde_json::to_string(self).unwrap_or_default();
        format!(
            "job-{index:04}-{}-{:08x}",
            self.policy.label(),
            fnv1a(canonical.as_bytes()) as u32
        )
    }
}

/// FNV-1a over `bytes` (64-bit).
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A cartesian product of per-axis values, expanded to [`JobSpec`]s in a
/// deterministic order (policies vary fastest, then capacities, then the
/// remaining axes, with workloads outermost).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobGrid {
    /// Policies to run (the innermost, fastest-varying axis).
    pub policies: Vec<PolicySpec>,
    /// Workload traces (the outermost axis).
    pub workloads: Vec<WorkloadSpec>,
    /// Device presets (`None` = workload default only).
    pub devices: Option<Vec<DevicePreset>>,
    /// Storage models (`None` = ideal only).
    pub storages: Option<Vec<StorageSpec>>,
    /// Predictors (`None` = the scenario default only).
    pub predictors: Option<Vec<PredictorSpec>>,
    /// Storage capacities in mA·min (`None` = the paper's 100 only).
    pub capacities_mamin: Option<Vec<f64>>,
    /// Efficiency slopes β (`None` = the paper's fit only).
    pub betas: Option<Vec<f64>>,
    /// Charger/discharger path efficiencies (`None` = lossless only).
    pub buffer_path_efficiencies: Option<Vec<f64>>,
    /// One-off jobs appended verbatim after the product.
    pub extra_jobs: Option<Vec<JobSpec>>,
}

impl JobGrid {
    /// A grid over `policies` × `workloads` with every other axis at its
    /// default.
    #[must_use]
    pub fn new(policies: Vec<PolicySpec>, workloads: Vec<WorkloadSpec>) -> Self {
        Self {
            policies,
            workloads,
            devices: None,
            storages: None,
            predictors: None,
            capacities_mamin: None,
            betas: None,
            buffer_path_efficiencies: None,
            extra_jobs: None,
        }
    }

    /// Load-time feasibility: `policies` and `workloads` are non-empty,
    /// and every policy, β, path efficiency, capacity and fault schedule
    /// passes its [`check`]. `fcdpm batch` calls this before the first
    /// job; [`run_grid`](crate::run_grid) does not, so sweeps may probe
    /// values outside the checked envelope on purpose.
    ///
    /// # Errors
    ///
    /// Returns the first violation, prefixed with the field it sits in.
    pub fn validate(&self) -> Result<(), String> {
        if self.policies.is_empty() {
            return Err("policies: empty, so the grid expands to zero jobs".to_owned());
        }
        if self.workloads.is_empty() {
            return Err("workloads: empty, so the grid expands to zero jobs".to_owned());
        }
        for policy in &self.policies {
            check::policy(policy).map_err(at("policies"))?;
        }
        for &beta in self.betas.iter().flatten() {
            check::beta(beta).map_err(at("betas"))?;
        }
        for &eta in self.buffer_path_efficiencies.iter().flatten() {
            check::path_efficiency(eta).map_err(at("buffer_path_efficiencies"))?;
        }
        for &capacity in self.capacities_mamin.iter().flatten() {
            check::capacity(capacity).map_err(at("capacities_mamin"))?;
        }
        for (index, job) in self.extra_jobs.iter().flatten().enumerate() {
            validate_job(job).map_err(|e| format!("extra_jobs[{index}].{e}"))?;
        }
        Ok(())
    }

    /// Expands the product into concrete jobs. The order is fixed
    /// regardless of how the grid will be scheduled: workloads, devices,
    /// storages, predictors, β, path efficiency, capacities, policies
    /// (innermost), then `extra_jobs` verbatim.
    #[must_use]
    pub fn expand(&self) -> Vec<JobSpec> {
        fn axis<T: Clone>(values: &Option<Vec<T>>) -> Vec<Option<T>> {
            match values {
                None => vec![None],
                Some(vs) if vs.is_empty() => vec![None],
                Some(vs) => vs.iter().cloned().map(Some).collect(),
            }
        }

        let devices = axis(&self.devices);
        let storages = axis(&self.storages);
        let predictors = axis(&self.predictors);
        let betas = axis(&self.betas);
        let path_effs = axis(&self.buffer_path_efficiencies);
        let capacities = axis(&self.capacities_mamin);

        let mut jobs = Vec::new();
        for workload in &self.workloads {
            for device in &devices {
                for storage in &storages {
                    for predictor in &predictors {
                        for beta in &betas {
                            for path_eff in &path_effs {
                                for capacity in &capacities {
                                    for policy in &self.policies {
                                        jobs.push(JobSpec {
                                            policy: policy.clone(),
                                            workload: workload.clone(),
                                            device: device.clone(),
                                            storage: storage.clone(),
                                            predictor: predictor.clone(),
                                            capacity_mamin: *capacity,
                                            beta: *beta,
                                            buffer_path_efficiency: *path_eff,
                                            faults: None,
                                            resilient: None,
                                            inject_panic: None,
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        if let Some(extra) = &self.extra_jobs {
            jobs.extend(extra.iter().cloned());
        }
        jobs
    }
}

/// Prefixes a check's message with the field it came from.
fn at(field: &'static str) -> impl Fn(String) -> String {
    move |e| format!("{field}: {e}")
}

/// [`JobGrid::validate`] for one pinned job's optional axes.
fn validate_job(job: &JobSpec) -> Result<(), String> {
    check::policy(&job.policy).map_err(at("policy"))?;
    if let Some(beta) = job.beta {
        check::beta(beta).map_err(at("beta"))?;
    }
    if let Some(eta) = job.buffer_path_efficiency {
        check::path_efficiency(eta).map_err(at("buffer_path_efficiency"))?;
    }
    if let Some(capacity) = job.capacity_mamin {
        check::capacity(capacity).map_err(at("capacity_mamin"))?;
    }
    if let Some(schedule) = &job.faults {
        check::faults(schedule).map_err(at("faults"))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_order_is_policies_innermost() {
        let mut grid = JobGrid::new(
            vec![PolicySpec::Conv, PolicySpec::Asap],
            vec![WorkloadSpec::Experiment1(1), WorkloadSpec::Experiment2(2)],
        );
        grid.capacities_mamin = Some(vec![50.0, 100.0]);
        let jobs = grid.expand();
        assert_eq!(jobs.len(), 8);
        assert_eq!(jobs[0].policy, PolicySpec::Conv);
        assert_eq!(jobs[1].policy, PolicySpec::Asap);
        assert_eq!(jobs[0].capacity_mamin, Some(50.0));
        assert_eq!(jobs[2].capacity_mamin, Some(100.0));
        assert_eq!(jobs[0].workload, WorkloadSpec::Experiment1(1));
        assert_eq!(jobs[4].workload, WorkloadSpec::Experiment2(2));
    }

    #[test]
    fn empty_axis_means_default() {
        let mut grid = JobGrid::new(vec![PolicySpec::Conv], vec![WorkloadSpec::Experiment1(1)]);
        grid.storages = Some(vec![]);
        let jobs = grid.expand();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].storage, None);
    }

    #[test]
    fn extra_jobs_append_after_product() {
        let mut grid = JobGrid::new(vec![PolicySpec::Conv], vec![WorkloadSpec::Experiment1(1)]);
        let mut poison = JobSpec::new(PolicySpec::Conv, WorkloadSpec::Experiment1(1));
        poison.inject_panic = Some(true);
        grid.extra_jobs = Some(vec![poison.clone()]);
        let jobs = grid.expand();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[1], poison);
    }

    #[test]
    fn job_ids_are_deterministic_and_spec_sensitive() {
        let a = JobSpec::new(PolicySpec::Conv, WorkloadSpec::Experiment1(1));
        let b = JobSpec::new(PolicySpec::Asap, WorkloadSpec::Experiment1(1));
        assert_eq!(a.id(0), a.id(0));
        assert_ne!(a.id(0), b.id(0));
        assert_ne!(a.id(0), a.id(1));
        assert!(a.id(3).starts_with("job-0003-conv-"));
    }

    #[test]
    fn grid_round_trips_through_json() {
        let mut grid = JobGrid::new(
            vec![PolicySpec::FcDpm, PolicySpec::Quantized(4)],
            vec![WorkloadSpec::Experiment1(0xDAC0_2007)],
        );
        grid.predictors = Some(vec![
            PredictorSpec::Exponential(0.5),
            PredictorSpec::Regression(8),
            PredictorSpec::Oracle,
        ]);
        grid.buffer_path_efficiencies = Some(vec![1.0, 0.9]);
        let text = serde_json::to_string(&grid).expect("serializes");
        let back: JobGrid = serde_json::from_str(&text).expect("parses");
        assert_eq!(grid, back);
    }
}
