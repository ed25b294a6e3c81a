//! The grid generator DSL: intensional cross products, expanded lazily.
//!
//! A [`GridSpec`] *describes* a fleet campaign — seeds × workloads ×
//! fault schedules × capacities × resilience × policies — without ever
//! materializing it. [`GridSpec::job_at`] decodes any global index into
//! its [`JobSpec`] in O(axes), so iteration ([`GridSpec::iter`]), random
//! access and shard slicing all agree by construction; a million-job
//! grid costs a few hundred bytes of JSON and no resident `Vec`.
//!
//! The expansion order is fixed and documented: seeds outermost, then
//! workloads, fault presets, capacities, resilience, and policies
//! innermost (policies vary fastest, matching
//! [`JobGrid`](fcdpm_runner::JobGrid)). [`GridSpec::expand_eager`] is an
//! independent nested-loop implementation of the same order, kept solely
//! so tests can pin the lazy decoder against it bit-for-bit.

use fcdpm_faults::FaultSchedule;
use fcdpm_runner::spec::fnv1a;
use fcdpm_runner::{check, sweep, JobSpec, PolicySpec, WorkloadSpec};
use serde::{Deserialize, Serialize};

/// A contiguous block of seeds, described by its endpoints only.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeedRange {
    /// First seed in the block.
    pub start: u64,
    /// Number of seeds (`start, start+1, …, start+count-1`).
    pub count: u64,
}

/// The seed axis: an explicit list or an intensional range.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SeedAxis {
    /// Explicit seed values, in order.
    List(Vec<u64>),
    /// A contiguous `start..start+count` block.
    Range(SeedRange),
}

impl SeedAxis {
    /// Number of seeds on the axis.
    #[must_use]
    pub fn len(&self) -> u64 {
        match self {
            SeedAxis::List(seeds) => seeds.len() as u64,
            SeedAxis::Range(range) => range.count,
        }
    }

    /// True when the axis has no seeds.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th seed (caller guarantees `i < len`).
    fn get(&self, i: u64) -> u64 {
        match self {
            SeedAxis::List(seeds) => seeds
                .get(usize::try_from(i).unwrap_or(usize::MAX))
                .copied()
                .unwrap_or(0),
            SeedAxis::Range(range) => range.start.wrapping_add(i),
        }
    }
}

/// A workload family; the concrete trace seed comes from the seed axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkloadKind {
    /// The DVD-camcorder MPEG trace (Experiment 1).
    Experiment1,
    /// The synthetic uniform workload (Experiment 2).
    Experiment2,
    /// The merged three-device aggregate profile.
    MultiDevice,
    /// The DVS platform at its fuel-averaged optimal level.
    Dvs,
}

impl WorkloadKind {
    fn with_seed(self, seed: u64) -> WorkloadSpec {
        match self {
            WorkloadKind::Experiment1 => WorkloadSpec::Experiment1(seed),
            WorkloadKind::Experiment2 => WorkloadSpec::Experiment2(seed),
            WorkloadKind::MultiDevice => WorkloadSpec::MultiDevice(seed),
            WorkloadKind::Dvs => WorkloadSpec::Dvs(seed),
        }
    }
}

/// A named fault schedule from the canonical catalogue
/// ([`fcdpm_runner::sweep`]), instantiated with the job's own seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultPreset {
    /// No fault injection at all (the job's `faults` field stays `None`).
    None,
    /// The canonical fuel-starvation window.
    Starvation,
    /// The canonical efficiency-fade step.
    Fade,
    /// The canonical storage fade + self-discharge pair.
    Storage,
    /// The canonical predictor dropout + noise pair.
    Predictor,
    /// Every canonical fault at once.
    Combined,
}

impl FaultPreset {
    fn schedule(self, seed: u64) -> Option<FaultSchedule> {
        match self {
            FaultPreset::None => None,
            FaultPreset::Starvation => Some(sweep::starvation_schedule(seed)),
            FaultPreset::Fade => Some(sweep::fade_schedule(seed)),
            FaultPreset::Storage => Some(sweep::storage_schedule(seed)),
            FaultPreset::Predictor => Some(sweep::predictor_schedule(seed)),
            FaultPreset::Combined => Some(sweep::combined_schedule(seed)),
        }
    }
}

/// Every [`GridSpec`] field folded into [`GridSpec::digest`]. Together
/// with [`GRIDSPEC_DIGEST_MASK`] this must partition the struct's
/// fields exactly — `fcdpm analyze`'s digest-stability pass checks the
/// partition statically, so adding a field without deciding its cache
/// fate fails CI instead of silently aliasing or orphaning resume
/// directories.
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
/// one neutralized by an explicit `canonical.<field> = …` assignment in
/// [`GridSpec::digest`]).
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

/// One axis resolved to its effective length, with `None` collapsing to
/// a single neutral slot.
fn axis_len<T>(axis: &Option<Vec<T>>) -> u64 {
    match axis {
        None => 1,
        Some(values) if values.is_empty() => 1,
        Some(values) => values.len() as u64,
    }
}

/// The `i`-th value of an optional axis (`None` for the neutral slot).
fn axis_get<T: Clone>(axis: &Option<Vec<T>>, i: u64) -> Option<T> {
    axis.as_ref()
        .and_then(|values| values.get(usize::try_from(i).unwrap_or(usize::MAX)))
        .cloned()
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

    /// Load-time validation: every mandatory axis non-empty, every
    /// policy and capacity passing its [`fcdpm_runner::check`], and the
    /// total below `u32::MAX` jobs (the practical fleet ceiling for one
    /// run directory). [`run`](crate::run) calls this before it creates
    /// the run directory.
    ///
    /// # Errors
    ///
    /// Returns the first violation, prefixed with the field it sits in.
    pub fn validate(&self) -> Result<(), String> {
        if self.seeds.is_empty() {
            return Err("seeds: the axis has no seeds".to_owned());
        }
        if self.workloads.is_empty() {
            return Err("workloads: empty, so the grid expands to zero jobs".to_owned());
        }
        if self.policies.is_empty() {
            return Err("policies: empty, so the grid expands to zero jobs".to_owned());
        }
        for policy in &self.policies {
            check::policy(policy).map_err(|e| format!("policies: {e}"))?;
        }
        for &capacity in self.capacities_mamin.iter().flatten() {
            check::capacity(capacity).map_err(|e| format!("capacities_mamin: {e}"))?;
        }
        let total = self.total_jobs();
        if total > u64::from(u32::MAX) {
            return Err(format!("grid expands to {total} jobs (limit {})", u32::MAX));
        }
        Ok(())
    }

    /// Total number of jobs the product expands to.
    #[must_use]
    pub fn total_jobs(&self) -> u64 {
        self.seeds
            .len()
            .saturating_mul(self.workloads.len() as u64)
            .saturating_mul(axis_len(&self.faults))
            .saturating_mul(axis_len(&self.capacities_mamin))
            .saturating_mul(axis_len(&self.resilient))
            .saturating_mul(self.policies.len() as u64)
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

    /// Decodes global job `index` into its spec (mixed-radix decode over
    /// the axes, policies as the least-significant digit).
    ///
    /// Returns `None` past the end of the grid.
    #[must_use]
    pub fn job_at(&self, index: u64) -> Option<JobSpec> {
        if index >= self.total_jobs() {
            return None;
        }
        let policies = self.policies.len() as u64;
        let resilient = axis_len(&self.resilient);
        let capacities = axis_len(&self.capacities_mamin);
        let faults = axis_len(&self.faults);
        let workloads = self.workloads.len() as u64;

        let mut rest = index;
        let policy_i = rest % policies;
        rest /= policies;
        let resilient_i = rest % resilient;
        rest /= resilient;
        let capacity_i = rest % capacities;
        rest /= capacities;
        let fault_i = rest % faults;
        rest /= faults;
        let workload_i = rest % workloads;
        rest /= workloads;
        let seed_i = rest;

        let seed = self.seeds.get(seed_i);
        let workload = self.workloads[usize::try_from(workload_i).ok()?];
        let policy = self.policies[usize::try_from(policy_i).ok()?].clone();
        let mut job = JobSpec::new(policy, workload.with_seed(seed));
        job.faults = axis_get(&self.faults, fault_i).and_then(|preset| preset.schedule(seed));
        job.capacity_mamin = axis_get(&self.capacities_mamin, capacity_i);
        job.resilient = axis_get(&self.resilient, resilient_i)
            .filter(|r| *r)
            .map(|_| true);
        job.inject_panic = self.inject_panic.filter(|p| *p);
        Some(job)
    }

    /// Lazily iterates `(index, spec)` over the whole product. Nothing
    /// is materialized: each item is decoded on demand.
    #[must_use]
    pub fn iter(&self) -> GridIter<'_> {
        GridIter {
            spec: self,
            next: 0,
            total: self.total_jobs(),
        }
    }

    /// Eagerly expands the whole product with nested loops.
    ///
    /// This is the *reference* expansion: an implementation of the
    /// documented order that shares no code with the mixed-radix decoder
    /// in [`job_at`](Self::job_at). Tests pin the two against each other;
    /// production code must use [`iter`](Self::iter), which never holds
    /// the product in memory.
    #[must_use]
    pub fn expand_eager(&self) -> Vec<JobSpec> {
        let fault_axis: Vec<Option<FaultPreset>> = match &self.faults {
            None => vec![None],
            Some(v) if v.is_empty() => vec![None],
            Some(v) => v.iter().copied().map(Some).collect(),
        };
        let capacity_axis: Vec<Option<f64>> = match &self.capacities_mamin {
            None => vec![None],
            Some(v) if v.is_empty() => vec![None],
            Some(v) => v.iter().copied().map(Some).collect(),
        };
        let resilient_axis: Vec<Option<bool>> = match &self.resilient {
            None => vec![None],
            Some(v) if v.is_empty() => vec![None],
            Some(v) => v.iter().copied().map(Some).collect(),
        };

        let mut jobs = Vec::new();
        for seed_i in 0..self.seeds.len() {
            let seed = self.seeds.get(seed_i);
            for workload in &self.workloads {
                for fault in &fault_axis {
                    for capacity in &capacity_axis {
                        for resilient in &resilient_axis {
                            for policy in &self.policies {
                                let mut job =
                                    JobSpec::new(policy.clone(), workload.with_seed(seed));
                                job.faults = fault.and_then(|preset| preset.schedule(seed));
                                job.capacity_mamin = *capacity;
                                job.resilient = resilient.filter(|r| *r).map(|_| true);
                                job.inject_panic = self.inject_panic.filter(|p| *p);
                                jobs.push(job);
                            }
                        }
                    }
                }
            }
        }
        jobs
    }
}

/// Lazy iterator over a [`GridSpec`]'s jobs; see [`GridSpec::iter`].
#[derive(Debug, Clone)]
pub struct GridIter<'a> {
    spec: &'a GridSpec,
    next: u64,
    total: u64,
}

impl Iterator for GridIter<'_> {
    type Item = (u64, JobSpec);

    fn next(&mut self) -> Option<Self::Item> {
        if self.next >= self.total {
            return None;
        }
        let index = self.next;
        self.next += 1;
        self.spec.job_at(index).map(|job| (index, job))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = usize::try_from(self.total - self.next).unwrap_or(usize::MAX);
        (left, Some(left))
    }
}

/// FNV-1a digest of one job's canonical JSON — the incremental-run cache
/// key. Any spec change (policy, seed, fault schedule, capacity, …)
/// changes the digest; scheduling never does.
#[must_use]
pub fn spec_digest(job: &JobSpec) -> u64 {
    fnv1a(serde_json::to_string(job).unwrap_or_default().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn total_is_the_axis_product() {
        let spec = small_spec();
        assert_eq!(spec.total_jobs(), 3 * 2 * 2 * 2 * 2 * 2);
        assert_eq!(spec.iter().count() as u64, spec.total_jobs());
    }

    #[test]
    fn lazy_decode_matches_eager_expansion() {
        let spec = small_spec();
        let eager = spec.expand_eager();
        assert_eq!(eager.len() as u64, spec.total_jobs());
        for (index, job) in spec.iter() {
            let i = usize::try_from(index).expect("fits");
            assert_eq!(job, eager[i], "index {index} diverges");
            assert_eq!(job.id(i), eager[i].id(i));
        }
    }

    #[test]
    fn policies_vary_fastest_and_seeds_slowest() {
        let spec = small_spec();
        let first = spec.job_at(0).expect("in range");
        let second = spec.job_at(1).expect("in range");
        assert_eq!(first.policy, PolicySpec::Conv);
        assert_eq!(second.policy, PolicySpec::FcDpm);
        assert_eq!(first.workload, second.workload);
        let per_seed = spec.total_jobs() / 3;
        let next_seed = spec.job_at(per_seed).expect("in range");
        assert_eq!(next_seed.workload, WorkloadSpec::Experiment1(8));
    }

    #[test]
    fn fault_presets_use_the_job_seed() {
        let spec = small_spec();
        let faulted = spec
            .iter()
            .map(|(_, job)| job)
            .find(|job| job.faults.is_some())
            .expect("grid has faulted jobs");
        let schedule = faulted.faults.expect("checked");
        match &faulted.workload {
            WorkloadSpec::Experiment1(seed) | WorkloadSpec::Experiment2(seed) => {
                assert_eq!(schedule.seed, *seed);
            }
            other => panic!("unexpected workload {other:?} in this grid"),
        }
    }

    #[test]
    fn out_of_range_index_is_none() {
        let spec = small_spec();
        assert!(spec.job_at(spec.total_jobs()).is_none());
        assert!(spec.job_at(u64::MAX).is_none());
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
    fn job_digests_are_spec_sensitive_and_index_free() {
        let spec = small_spec();
        let a = spec.job_at(0).expect("in range");
        let b = spec.job_at(1).expect("in range");
        assert_ne!(spec_digest(&a), spec_digest(&b));
        assert_eq!(spec_digest(&a), spec_digest(&a.clone()));
    }

    #[test]
    fn inject_panic_axis_reaches_every_job_and_is_digest_keyed() {
        let mut spec = small_spec();
        spec.inject_panic = Some(true);
        assert!(spec.iter().all(|(_, job)| job.inject_panic == Some(true)));
        assert!(spec
            .expand_eager()
            .iter()
            .all(|job| job.inject_panic == Some(true)));
        assert_ne!(spec.digest(), small_spec().digest());
        let mut off = small_spec();
        off.inject_panic = Some(false);
        assert!(off.iter().all(|(_, job)| job.inject_panic.is_none()));
    }

    #[test]
    fn dvs_workload_kind_decodes_with_seed() {
        let spec = GridSpec::new(
            SeedAxis::List(vec![9]),
            vec![WorkloadKind::Dvs],
            vec![PolicySpec::Conv],
        );
        assert_eq!(
            spec.job_at(0).expect("in range").workload,
            WorkloadSpec::Dvs(9)
        );
    }

    #[test]
    fn seed_list_axis_is_order_preserving() {
        let spec = GridSpec::new(
            SeedAxis::List(vec![42, 5]),
            vec![WorkloadKind::Experiment1],
            vec![PolicySpec::Conv],
        );
        assert_eq!(
            spec.job_at(0).expect("in range").workload,
            WorkloadSpec::Experiment1(42)
        );
        assert_eq!(
            spec.job_at(1).expect("in range").workload,
            WorkloadSpec::Experiment1(5)
        );
    }
}
