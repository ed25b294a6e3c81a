//! The `fcdpm grid run` spelling of a job grid.
//!
//! A [`GridSpec`] *describes* a fleet campaign — seeds × workloads ×
//! fault presets × capacities × resilience × policies — in a few
//! hundred bytes of JSON, without ever materializing it. It has no
//! expansion logic of its own: [`GridSpec::axes`] lowers it in O(1)
//! into the runner's one job-grid decoder, [`fcdpm_runner::Axes`],
//! which owns the expansion order, the axis defaults, the job count,
//! the mixed-radix [`job_at`](GridSpec::job_at) and load-time
//! [`validate`](GridSpec::validate). The device, storage, predictor, β
//! and path-efficiency axes stay neutral, so the order is seeds
//! outermost, then workloads, fault presets, capacities, resilience,
//! and policies innermost.
//!
//! What is this spelling's own is its identity: [`GridSpec::digest`],
//! the run-directory key, and the manifests that pin which fields fold
//! into it.

use fcdpm_runner::spec::{fnv1a, Axes, Workloads};
use fcdpm_runner::{FaultPreset, JobSpec, PolicySpec, SeedAxis, WorkloadKind};
use serde::{Deserialize, Serialize};

/// Every [`GridSpec`] field folded into [`GridSpec::digest`]. Together
/// with [`GRIDSPEC_DIGEST_MASK`] this must partition the struct's
/// serialized fields exactly — `tests/serde_roundtrips.rs`
/// (`digest_manifests_match_the_serialized_fields`) checks the partition
/// and that each field moves the digest exactly when it is folded, so
/// adding a field without deciding its cache fate fails CI instead of
/// silently aliasing or orphaning resume directories.
pub const GRIDSPEC_DIGEST_FIELDS: &[&str] = &[
    "seeds",
    "workloads",
    "policies",
    "faults",
    "capacities_mamin",
    "resilient",
    "inject_panic",
];

/// [`GridSpec`] fields deliberately *excluded* from the digest (each
/// one neutralized in [`GridSpec::digest`] before hashing).
pub const GRIDSPEC_DIGEST_MASK: &[&str] = &["name"];

/// An intensionally-described cross product of fleet-simulation jobs.
///
/// Optional axes default to a single neutral value, so the minimal spec
/// is `seeds × workloads × policies`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridSpec {
    /// Human-facing campaign name (informational only; not hashed into
    /// job digests, so renaming a campaign never invalidates its cache).
    pub name: Option<String>,
    /// Trace seeds (outermost axis).
    pub seeds: SeedAxis,
    /// Workload families.
    pub workloads: Vec<WorkloadKind>,
    /// FC output policies (innermost, fastest-varying axis).
    pub policies: Vec<PolicySpec>,
    /// Fault-schedule presets (`None` = no fault injection only).
    pub faults: Option<Vec<FaultPreset>>,
    /// Storage capacities in mA·min (`None` = the paper's 100 only).
    pub capacities_mamin: Option<Vec<f64>>,
    /// Resilient-wrapper settings (`None` = unwrapped only).
    pub resilient: Option<Vec<bool>>,
    /// Make every job's *first* execution panic inside the executor
    /// (`Some(true)`), modelling a transient fault the engine's retry
    /// policy recovers from. Absent in normal campaigns — this is the
    /// crash-injection fixture axis.
    pub inject_panic: Option<bool>,
}

impl GridSpec {
    /// A spec over `seeds × workloads × policies` with every optional
    /// axis at its default.
    #[must_use]
    pub fn new(seeds: SeedAxis, workloads: Vec<WorkloadKind>, policies: Vec<PolicySpec>) -> Self {
        Self {
            name: None,
            seeds,
            workloads,
            policies,
            faults: None,
            capacities_mamin: None,
            resilient: None,
            inject_panic: None,
        }
    }

    /// The spec as the runner's job grid, borrowing its vectors.
    #[must_use]
    pub fn axes(&self) -> Axes<'_> {
        Axes {
            faults: self.faults.as_deref().unwrap_or_default(),
            capacities: self.capacities_mamin.as_deref().unwrap_or_default(),
            resilient: self.resilient.as_deref().unwrap_or_default(),
            inject_panic: self.inject_panic == Some(true),
            workloads: Workloads::Seeded(&self.seeds, &self.workloads),
            policies: &self.policies,
            ..Axes::default()
        }
    }

    /// [`Axes::validate`]; [`run`](crate::run) calls this before it
    /// creates the run directory.
    ///
    /// # Errors
    ///
    /// Returns the first violation, prefixed with the field it sits in.
    pub fn validate(&self) -> Result<(), String> {
        self.axes().validate()
    }

    /// Total number of jobs the product expands to.
    #[must_use]
    pub fn total_jobs(&self) -> u64 {
        self.axes().len()
    }

    /// [`Axes::job_at`]: global job `index` decoded into its spec.
    #[must_use]
    pub fn job_at(&self, index: u64) -> Option<JobSpec> {
        self.axes().job_at(index)
    }

    /// [`Axes::iter`]: lazily iterates `(index, spec)` over the product.
    pub fn iter(&self) -> impl Iterator<Item = (u64, JobSpec)> + '_ {
        self.axes().iter()
    }

    /// FNV-1a digest of the spec's canonical JSON — the run identity
    /// behind the default run ID. The informational `name` is masked
    /// out, so renaming a campaign keeps its run directory and cache.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut canonical = self.clone();
        canonical.name = None;
        fnv1a(
            serde_json::to_string(&canonical)
                .unwrap_or_default()
                .as_bytes(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcdpm_runner::SeedRange;

    fn small_spec() -> GridSpec {
        let mut spec = GridSpec::new(
            SeedAxis::Range(SeedRange { start: 7, count: 3 }),
            vec![WorkloadKind::Experiment1, WorkloadKind::Experiment2],
            vec![PolicySpec::Conv, PolicySpec::FcDpm],
        );
        spec.faults = Some(vec![FaultPreset::None, FaultPreset::Starvation]);
        spec.capacities_mamin = Some(vec![50.0, 100.0]);
        spec.resilient = Some(vec![false, true]);
        spec
    }

    #[test]
    fn fault_presets_use_the_job_seed() {
        let spec = small_spec();
        assert!(spec.iter().any(|(_, job)| job.faults.is_some()));
        for (_, job) in spec.iter() {
            if let Some(schedule) = &job.faults {
                assert_eq!(schedule.seed, job.workload.seed());
            }
        }
    }

    #[test]
    fn validation_names_the_problem() {
        let mut spec = small_spec();
        spec.policies.clear();
        assert!(spec.validate().unwrap_err().contains("policies"));
        let mut spec = small_spec();
        spec.seeds = SeedAxis::List(vec![]);
        assert!(spec.validate().unwrap_err().contains("seeds"));
        let mut spec = small_spec();
        spec.capacities_mamin = Some(vec![-1.0]);
        assert!(spec.validate().unwrap_err().contains("positive"));
        assert!(small_spec().validate().is_ok());
    }

    #[test]
    fn spec_round_trips_through_json_and_digest_is_content_keyed() {
        let spec = small_spec();
        let text = serde_json::to_string(&spec).expect("serializes");
        let back: GridSpec = serde_json::from_str(&text).expect("parses");
        assert_eq!(spec, back);
        assert_eq!(spec.digest(), back.digest());
        let mut renamed = spec.clone();
        renamed.name = Some("fleet".to_owned());
        assert_eq!(spec.digest(), renamed.digest(), "name is informational");
        let mut reseeded = spec.clone();
        reseeded.seeds = SeedAxis::Range(SeedRange { start: 8, count: 3 });
        assert_ne!(spec.digest(), reseeded.digest());
    }

    #[test]
    fn inject_panic_axis_reaches_every_job_and_is_digest_keyed() {
        let mut spec = small_spec();
        spec.inject_panic = Some(true);
        assert!(spec.iter().all(|(_, job)| job.inject_panic == Some(true)));
        assert_ne!(spec.digest(), small_spec().digest());
        let mut off = small_spec();
        off.inject_panic = Some(false);
        assert!(off.iter().all(|(_, job)| job.inject_panic.is_none()));
    }
}
