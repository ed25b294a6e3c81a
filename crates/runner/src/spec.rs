//! Declarative job specifications and the one job-grid decoder.
//!
//! A [`JobSpec`] pins every axis of one simulation run. A campaign is a
//! cross product of per-axis value lists, spelled on disk in one of two
//! serde shapes: a [`JobGrid`] (`fcdpm batch`: explicit workloads, the
//! device, storage, predictor, β and path-efficiency axes, one-off
//! extra jobs) or an `fcdpm_grid::GridSpec` (`fcdpm grid run`: seeds ×
//! workload kinds, fault presets, resilience). Both lower in O(1) into
//! one [`Axes`], which borrows their vectors and owns everything about
//! the product: the expansion order, the axis defaults, the job count,
//! the mixed-radix decoder ([`Axes::job_at`], [`Axes::iter`]) and the
//! load-time checks ([`Axes::validate`]). [`Axes::expand`] is an
//! independent nested-loop expansion of the same order, kept as the
//! reference the decoder is tested against.
//!
//! Every job hash is FNV-1a over the spec's compact JSON
//! ([`spec_digest`]); the job ID ([`JobSpec::id_from_digest`]) keeps its
//! low 32 bits, so one serialization per job serves both.

use fcdpm_faults::{
    EfficiencyFade, FaultEvent, FaultKind, FaultSchedule, FuelStarvation, PredictorDropout,
    PredictorNoise, SelfDischarge, StorageFade,
};
use serde::{Deserialize, Serialize};

use crate::check;
use crate::exec::{run_key, ScenarioRuns};

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
    /// the load-following range `[0.1, 1.2] A`; [`Axes::validate`]
    /// rejects setpoints outside it at load time, and the executor
    /// fails the job.
    Constant(f64),
}

impl PolicySpec {
    /// [`JobSpec::id`] of job `index` with this policy and spec digest
    /// `digest`.
    #[must_use]
    pub fn job_id(&self, index: u64, digest: u64) -> String {
        format!("job-{index:04}-{}-{:08x}", self.label(), digest as u32)
    }

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

    /// The trace seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        match *self {
            WorkloadSpec::Experiment1(seed)
            | WorkloadSpec::Experiment2(seed)
            | WorkloadSpec::MultiDevice(seed)
            | WorkloadSpec::Dvs(seed) => seed,
        }
    }
}

/// A workload family; the concrete trace seed comes from a seed axis.
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
    /// This family's trace for `seed`.
    #[must_use]
    pub fn with_seed(self, seed: u64) -> WorkloadSpec {
        match self {
            WorkloadKind::Experiment1 => WorkloadSpec::Experiment1(seed),
            WorkloadKind::Experiment2 => WorkloadSpec::Experiment2(seed),
            WorkloadKind::MultiDevice => WorkloadSpec::MultiDevice(seed),
            WorkloadKind::Dvs => WorkloadSpec::Dvs(seed),
        }
    }
}

/// A contiguous block of seeds, described by its endpoints only.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeedRange {
    /// First seed in the block.
    pub start: u64,
    /// Number of seeds (`start, start+1, …, start+count-1`).
    pub count: u64,
}

/// A seed axis: an explicit list or an intensional range.
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

/// A named fault schedule from the canonical catalogue, instantiated
/// with the job's own trace seed. [`FaultPreset::schedule`] is the one
/// place the catalogue is written down; every window sits inside the
/// ~28-minute Experiment-1 trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultPreset {
    /// No fault injection at all (the job's `faults` field stays `None`).
    None,
    /// The stack loses most of its load-following headroom for a
    /// nine-minute window mid-trace. The 0.47 A cap sits above FC-DPM's
    /// fuel-optimal idle setpoints but well below the camcorder's active
    /// draw, so the window separates policies that rebuild reserve
    /// (strictly less brownout time) from ones that keep optimizing fuel
    /// against a range that no longer exists.
    Starvation,
    /// `α` drops and `β` steepens a third of the way in, permanently.
    Fade,
    /// A storage capacity fade followed by a parasitic self-discharge
    /// leak.
    Storage,
    /// A predictor dropout window followed by a seeded noise window.
    Predictor,
    /// Every canonical fault at once — the stress case the degradation
    /// ladder exists for.
    Combined,
}

impl FaultPreset {
    /// Every preset that injects faults, in fault-sweep order.
    pub(crate) const CANONICAL: [FaultPreset; 5] = [
        FaultPreset::Starvation,
        FaultPreset::Fade,
        FaultPreset::Storage,
        FaultPreset::Predictor,
        FaultPreset::Combined,
    ];

    /// The preset's schedule for `seed` (`None` for [`FaultPreset::None`]).
    #[must_use]
    pub fn schedule(self, seed: u64) -> Option<FaultSchedule> {
        let at = |at_s, kind| FaultEvent { at_s, kind };
        let events = match self {
            FaultPreset::None => return None,
            FaultPreset::Starvation => vec![at(
                200.0,
                FaultKind::FuelStarvation(FuelStarvation {
                    until_s: 740.0,
                    max_a: 0.47,
                }),
            )],
            FaultPreset::Fade => vec![at(
                560.0,
                FaultKind::EfficiencyFade(EfficiencyFade {
                    alpha_scale: 0.85,
                    beta_scale: 1.3,
                }),
            )],
            FaultPreset::Storage => vec![
                at(
                    400.0,
                    FaultKind::StorageFade(StorageFade {
                        capacity_scale: 0.6,
                    }),
                ),
                at(
                    700.0,
                    FaultKind::SelfDischarge(SelfDischarge { leak_a: 0.02 }),
                ),
            ],
            FaultPreset::Predictor => vec![
                at(
                    250.0,
                    FaultKind::PredictorDropout(PredictorDropout { until_s: 640.0 }),
                ),
                at(
                    900.0,
                    FaultKind::PredictorNoise(PredictorNoise {
                        until_s: 1300.0,
                        magnitude: 0.3,
                    }),
                ),
            ],
            FaultPreset::Combined => Self::CANONICAL[..4]
                .iter()
                .filter_map(|preset| preset.schedule(seed))
                .flat_map(|schedule| schedule.events)
                .collect(),
        };
        Some(FaultSchedule { seed, events })
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
/// ([`spec_digest`] hashes the serialized spec whole, so the
/// list is exhaustive and [`JOBSPEC_DIGEST_MASK`] stays empty).
/// `tests/serde_roundtrips.rs`
/// (`digest_manifests_match_the_serialized_fields`) checks the list
/// against the serialized fields and that changing each one moves the
/// digest: a new field fails CI until it is listed here — and the
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
    /// Fault schedule injected mid-run (`None` = no faults). An empty
    /// schedule behaves exactly like `None`, except on a `resilient`
    /// job: the wrapper then sees the real state of charge and may hold
    /// the inner policy at the depletion rail. So
    /// [`run_key`] drops `resilient` only when this is
    /// `None` (see
    /// `tests/fault_injection.rs::resilient_wrapper_is_invisible_without_faults`).
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

    /// Deterministic job ID: the job's grid index, policy label and the
    /// low 32 bits of its [`spec_digest`], so IDs are stable across runs
    /// and worker counts but change whenever the spec itself changes.
    #[must_use]
    pub fn id(&self, index: usize) -> String {
        self.id_from_digest(index as u64, spec_digest(self))
    }

    /// [`id`](Self::id) from an already computed [`spec_digest`], so a
    /// caller that keys records by digest serializes the spec once.
    #[must_use]
    pub fn id_from_digest(&self, index: u64, digest: u64) -> String {
        self.policy.job_id(index, digest)
    }
}

/// Folds `bytes` into a running FNV-1a (64-bit) `hash`, so one hash can
/// stream over many pieces.
#[must_use]
pub(crate) fn fnv1a_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a over `bytes` (64-bit).
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// FNV-1a digest of one job's compact JSON (of the empty string when a
/// non-finite float keeps the spec from serializing): the
/// incremental-run cache key and, truncated, the hash in its ID. Any
/// spec change (policy, seed, fault schedule, capacity, …) changes the
/// digest; scheduling never does.
#[must_use]
pub fn spec_digest(job: &JobSpec) -> u64 {
    fnv1a(serde_json::to_string(job).unwrap_or_default().as_bytes())
}

/// The workload axis of an [`Axes`].
#[derive(Debug, Clone, Copy)]
pub enum Workloads<'a> {
    /// Explicit workloads, in order.
    List(&'a [WorkloadSpec]),
    /// Every seed (outer) × every workload family (inner).
    Seeded(&'a SeedAxis, &'a [WorkloadKind]),
}

impl Default for Workloads<'_> {
    fn default() -> Self {
        Workloads::List(&[])
    }
}

impl Workloads<'_> {
    fn len(&self) -> u64 {
        match self {
            Workloads::List(list) => list.len() as u64,
            Workloads::Seeded(seeds, kinds) => seeds.len().saturating_mul(kinds.len() as u64),
        }
    }

    /// The `i`-th workload (`None` past the end).
    fn get(&self, i: u64) -> Option<WorkloadSpec> {
        match self {
            Workloads::List(list) => list.get(usize::try_from(i).ok()?).cloned(),
            Workloads::Seeded(seeds, kinds) => {
                let per_seed = kinds.len() as u64;
                let kind = kinds.get(usize::try_from(i.checked_rem(per_seed)?).ok()?)?;
                Some(kind.with_seed(seeds.get(i / per_seed)))
            }
        }
    }
}

/// The job grid both on-disk spellings lower into: the union of their
/// axes, borrowed, so building one costs nothing.
///
/// The product runs outermost first: workloads, devices, storages,
/// predictors, β, path efficiencies, fault presets, capacities,
/// resilience, policies (innermost, fastest-varying); then
/// `extra_jobs` verbatim. An empty optional axis is one neutral slot
/// (the field stays `None`); `workloads` and `policies` are mandatory.
/// The default is the empty grid.
#[derive(Debug, Clone, Copy, Default)]
pub struct Axes<'a> {
    /// The workload axis (outermost).
    pub workloads: Workloads<'a>,
    /// Device presets.
    pub devices: &'a [DevicePreset],
    /// Storage models.
    pub storages: &'a [StorageSpec],
    /// Idle predictors.
    pub predictors: &'a [PredictorSpec],
    /// Efficiency slopes β.
    pub betas: &'a [f64],
    /// Charger/discharger path efficiencies.
    pub path_efficiencies: &'a [f64],
    /// Fault presets, seeded by each job's trace seed.
    pub faults: &'a [FaultPreset],
    /// Storage capacities in mA·min.
    pub capacities: &'a [f64],
    /// Resilient-wrapper settings (`false` leaves the field `None`).
    pub resilient: &'a [bool],
    /// Policies (innermost).
    pub policies: &'a [PolicySpec],
    /// Arm the injected panic in every product job.
    pub inject_panic: bool,
    /// One-off jobs appended after the product.
    pub extra_jobs: &'a [JobSpec],
}

/// An optional axis's radix: an empty list is one neutral slot.
fn radix<T>(values: &[T]) -> u64 {
    (values.len() as u64).max(1)
}

/// Pops the least-significant digit of `rest` for `values`' axis and
/// returns the value it selects (`None` for the neutral slot).
fn digit<T: Clone>(rest: &mut u64, values: &[T]) -> Option<T> {
    let radix = radix(values);
    let i = *rest % radix;
    *rest /= radix;
    values.get(usize::try_from(i).ok()?).cloned()
}

/// Prefixes a check's message with the field it came from.
fn at(field: &'static str) -> impl Fn(String) -> String {
    move |e| format!("{field}: {e}")
}

impl<'a> Axes<'a> {
    /// Jobs per workload and device: the product of every axis inside
    /// the device axis.
    fn scenario_len(&self) -> u64 {
        [
            radix(self.storages),
            radix(self.predictors),
            radix(self.betas),
            radix(self.path_efficiencies),
            radix(self.faults),
            radix(self.capacities),
            radix(self.resilient),
            self.policies.len() as u64,
        ]
        .into_iter()
        .fold(1, u64::saturating_mul)
    }

    /// Jobs in the cross product (before `extra_jobs`).
    fn product_len(&self) -> u64 {
        self.workloads
            .len()
            .saturating_mul(radix(self.devices))
            .saturating_mul(self.scenario_len())
    }

    /// [`scenario_runs`](crate::scenario_runs) over [`iter`](Self::iter),
    /// from the radices: workload and device are the two outermost
    /// digits, so each of their pairs spans one run of consecutive
    /// product jobs. Only the run keys are decoded, one per pair and
    /// one per extra job; neighbours with equal keys merge.
    #[must_use]
    pub fn scenario_runs(&self) -> Vec<usize> {
        let mut runs = ScenarioRuns::default();
        let len = usize::try_from(self.scenario_len()).unwrap_or(usize::MAX);
        for workload in (0..self.workloads.len()).filter_map(|w| self.workloads.get(w)) {
            for d in 0..radix(self.devices) {
                let device = self.devices.get(d as usize).cloned();
                runs.push((workload.clone(), device), len);
            }
        }
        for job in self.extra_jobs {
            runs.push((job.workload.clone(), job.device.clone()), 1);
        }
        runs.ends
    }

    /// Total number of jobs: the product plus `extra_jobs`.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.product_len()
            .saturating_add(self.extra_jobs.len() as u64)
    }

    /// True when the grid holds no jobs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Decodes global job `index` into its spec: a mixed-radix decode
    /// over the product, policies as the least-significant digit, then
    /// `extra_jobs`. O(axes), independent of visit order.
    ///
    /// Returns `None` past the end of the grid.
    #[must_use]
    pub fn job_at(&self, index: u64) -> Option<JobSpec> {
        let product = self.product_len();
        if index >= product {
            let extra = usize::try_from(index - product).ok()?;
            return self.extra_jobs.get(extra).cloned();
        }
        let mut rest = index;
        let policy = digit(&mut rest, self.policies)?;
        let resilient = digit(&mut rest, self.resilient);
        let capacity_mamin = digit(&mut rest, self.capacities);
        let fault = digit(&mut rest, self.faults);
        let buffer_path_efficiency = digit(&mut rest, self.path_efficiencies);
        let beta = digit(&mut rest, self.betas);
        let predictor = digit(&mut rest, self.predictors);
        let storage = digit(&mut rest, self.storages);
        let device = digit(&mut rest, self.devices);
        let workload = self.workloads.get(rest)?;
        Some(JobSpec {
            faults: fault.and_then(|preset| preset.schedule(workload.seed())),
            policy,
            workload,
            device,
            storage,
            predictor,
            capacity_mamin,
            beta,
            buffer_path_efficiency,
            resilient: resilient.filter(|&r| r),
            inject_panic: self.inject_panic.then_some(true),
        })
    }

    /// The policy of job `index`, read from its least-significant digit
    /// (or an extra job's own field) without decoding the rest.
    ///
    /// Returns `None` past the end of the grid.
    #[must_use]
    pub fn policy_at(&self, index: u64) -> Option<&'a PolicySpec> {
        let product = self.product_len();
        if index >= product {
            let extra = usize::try_from(index - product).ok()?;
            return self.extra_jobs.get(extra).map(|job| &job.policy);
        }
        let digit = index % self.policies.len() as u64;
        self.policies.get(usize::try_from(digit).ok()?)
    }

    /// The first index whose job has the same [`run_key`] as job
    /// `index`, given as `job` (the caller has decoded it already).
    /// Jobs that differ only in their resilient digit sit `stride`
    /// indices apart, where `stride` is the policy count, so only the
    /// earlier values of that digit are searched, by index arithmetic;
    /// each candidate is decoded and its run key compared, so a match
    /// never rests on which fields the key drops. Returns `index` itself
    /// when no earlier job matches, and for extra jobs.
    #[must_use]
    pub fn first_with_run_key(&self, index: u64, job: &JobSpec) -> u64 {
        if index >= self.product_len() {
            return index;
        }
        let stride = self.policies.len() as u64;
        let digit = index / stride % radix(self.resilient);
        if digit == 0 {
            return index;
        }
        let key = run_key(job);
        (1..=digit)
            .rev()
            .map(|back| index - back * stride)
            .find(|&earlier| {
                self.job_at(earlier)
                    .is_some_and(|other| run_key(&other) == key)
            })
            .unwrap_or(index)
    }

    /// How far back [`first_with_run_key`](Self::first_with_run_key)
    /// reaches: `index - first_with_run_key(index, job)` is always below
    /// this (the resilient radix times the policy count).
    #[must_use]
    pub fn run_key_reach(&self) -> u64 {
        radix(self.resilient).saturating_mul(self.policies.len() as u64)
    }

    /// Lazily iterates `(index, spec)` over the whole grid. Nothing is
    /// materialized: each item is decoded on demand.
    pub fn iter(&self) -> impl Iterator<Item = (u64, JobSpec)> + 'a {
        let axes = *self;
        (0..self.len()).map_while(move |index| axes.job_at(index).map(|job| (index, job)))
    }

    /// Load-time feasibility: the mandatory axes are non-empty, every
    /// value passes its [`check`], every extra job passes the checks for
    /// its own fields, and the grid holds at most `u32::MAX` jobs (the
    /// practical ceiling for one run directory). `fcdpm batch` and
    /// `fcdpm grid run` call this before the first job;
    /// [`run_grid`](crate::run_grid) does not, so sweeps may probe
    /// values outside the checked envelope on purpose.
    ///
    /// # Errors
    ///
    /// Returns the first violation, prefixed with the field it sits in.
    pub fn validate(&self) -> Result<(), String> {
        if matches!(self.workloads, Workloads::Seeded(seeds, _) if seeds.is_empty()) {
            return Err("seeds: the axis has no seeds".to_owned());
        }
        if self.workloads.len() == 0 {
            return Err("workloads: empty, so the grid expands to zero jobs".to_owned());
        }
        if self.policies.is_empty() {
            return Err("policies: empty, so the grid expands to zero jobs".to_owned());
        }
        for policy in self.policies {
            check::policy(policy).map_err(at("policies"))?;
        }
        for predictor in self.predictors {
            check::predictor(predictor).map_err(at("predictors"))?;
        }
        for &beta in self.betas {
            check::beta(beta).map_err(at("betas"))?;
        }
        for &eta in self.path_efficiencies {
            check::path_efficiency(eta).map_err(at("buffer_path_efficiencies"))?;
        }
        for &capacity in self.capacities {
            check::capacity(capacity).map_err(at("capacities_mamin"))?;
        }
        for (index, job) in self.extra_jobs.iter().enumerate() {
            validate_job(job).map_err(|e| format!("extra_jobs[{index}].{e}"))?;
        }
        let total = self.len();
        if total > u64::from(u32::MAX) {
            return Err(format!("grid expands to {total} jobs (limit {})", u32::MAX));
        }
        Ok(())
    }

    /// Eagerly expands the whole grid, one nested loop per axis.
    ///
    /// This is the *reference* expansion: the documented order written
    /// out axis by axis, outermost first, sharing no index arithmetic
    /// with [`job_at`](Self::job_at). Tests pin the decoder against it;
    /// production paths decode, so no grid is ever held whole.
    #[must_use]
    pub fn expand(&self) -> Vec<JobSpec> {
        /// Replaces every job with one copy per value of the next axis
        /// (`set` receives `None` once for an empty, neutral axis).
        fn nest<T: Clone>(
            jobs: Vec<JobSpec>,
            values: &[T],
            set: impl Fn(&mut JobSpec, Option<T>),
        ) -> Vec<JobSpec> {
            let slots: Vec<Option<T>> = if values.is_empty() {
                vec![None]
            } else {
                values.iter().cloned().map(Some).collect()
            };
            let set = &set;
            jobs.iter()
                .flat_map(|job| {
                    slots.iter().map(move |slot| {
                        let mut job = job.clone();
                        set(&mut job, slot.clone());
                        job
                    })
                })
                .collect()
        }
        let workloads: Vec<WorkloadSpec> = match self.workloads {
            Workloads::List(list) => list.to_vec(),
            Workloads::Seeded(seeds, kinds) => (0..seeds.len())
                .flat_map(|i| kinds.iter().map(move |kind| kind.with_seed(seeds.get(i))))
                .collect(),
        };
        let Some(first) = self.policies.first() else {
            return self.extra_jobs.to_vec();
        };
        let mut jobs = workloads
            .into_iter()
            .map(|workload| JobSpec::new(first.clone(), workload))
            .collect();
        jobs = nest(jobs, self.devices, |job, v| job.device = v);
        jobs = nest(jobs, self.storages, |job, v| job.storage = v);
        jobs = nest(jobs, self.predictors, |job, v| job.predictor = v);
        jobs = nest(jobs, self.betas, |job, v| job.beta = v);
        jobs = nest(jobs, self.path_efficiencies, |job, v| {
            job.buffer_path_efficiency = v;
        });
        jobs = nest(jobs, self.faults, |job, v| {
            job.faults = v.and_then(|preset| preset.schedule(job.workload.seed()));
        });
        jobs = nest(jobs, self.capacities, |job, v| job.capacity_mamin = v);
        jobs = nest(jobs, self.resilient, |job, v| {
            job.resilient = v.filter(|&r| r)
        });
        jobs = nest(jobs, self.policies, |job, v| {
            if let Some(policy) = v {
                job.policy = policy;
            }
            job.inject_panic = self.inject_panic.then_some(true);
        });
        jobs.extend(self.extra_jobs.iter().cloned());
        jobs
    }
}

/// [`Axes::validate`] for one pinned job's optional axes.
fn validate_job(job: &JobSpec) -> Result<(), String> {
    check::policy(&job.policy).map_err(at("policy"))?;
    if let Some(predictor) = &job.predictor {
        check::predictor(predictor).map_err(at("predictor"))?;
    }
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

/// A cartesian product of per-axis values, the `fcdpm batch` spelling
/// of a job grid. It lowers into [`Axes`] with the fault and resilience
/// axes neutral; see there for the expansion order.
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

    /// The grid as [`Axes`], borrowing this spelling's vectors.
    #[must_use]
    pub fn axes(&self) -> Axes<'_> {
        Axes {
            devices: self.devices.as_deref().unwrap_or_default(),
            storages: self.storages.as_deref().unwrap_or_default(),
            predictors: self.predictors.as_deref().unwrap_or_default(),
            betas: self.betas.as_deref().unwrap_or_default(),
            path_efficiencies: self.buffer_path_efficiencies.as_deref().unwrap_or_default(),
            capacities: self.capacities_mamin.as_deref().unwrap_or_default(),
            extra_jobs: self.extra_jobs.as_deref().unwrap_or_default(),
            workloads: Workloads::List(&self.workloads),
            policies: &self.policies,
            ..Axes::default()
        }
    }

    /// [`Axes::validate`].
    ///
    /// # Errors
    ///
    /// Returns the first violation, prefixed with the field it sits in.
    pub fn validate(&self) -> Result<(), String> {
        self.axes().validate()
    }

    /// [`Axes::expand`]: the eager reference expansion.
    #[must_use]
    pub fn expand(&self) -> Vec<JobSpec> {
        self.axes().expand()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The grid's jobs through the decoder, checked against the eager
    /// reference.
    fn decoded(grid: &JobGrid) -> Vec<JobSpec> {
        let jobs: Vec<JobSpec> = grid.axes().iter().map(|(_, job)| job).collect();
        assert_eq!(jobs, grid.expand(), "decoder and reference disagree");
        jobs
    }

    #[test]
    fn expansion_order_is_policies_innermost() {
        let mut grid = JobGrid::new(
            vec![PolicySpec::Conv, PolicySpec::Asap],
            vec![WorkloadSpec::Experiment1(1), WorkloadSpec::Experiment2(2)],
        );
        grid.capacities_mamin = Some(vec![50.0, 100.0]);
        let jobs = decoded(&grid);
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
        let jobs = decoded(&grid);
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].storage, None);
    }

    #[test]
    fn extra_jobs_append_after_product() {
        let mut grid = JobGrid::new(vec![PolicySpec::Conv], vec![WorkloadSpec::Experiment1(1)]);
        let mut poison = JobSpec::new(PolicySpec::Conv, WorkloadSpec::Experiment1(1));
        poison.inject_panic = Some(true);
        grid.extra_jobs = Some(vec![poison.clone()]);
        let jobs = decoded(&grid);
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[1], poison);
    }

    /// Against a brute-force scan of the whole grid: the resilient digit
    /// holds duplicates and runs `true` before `false`, so with no fault
    /// both later values repeat the first, and with one only the
    /// duplicate does.
    #[test]
    fn first_with_run_key_matches_a_brute_force_scan() {
        let workloads = [WorkloadSpec::Experiment1(1), WorkloadSpec::Dvs(2)];
        let policies = [PolicySpec::Conv, PolicySpec::FcDpm];
        let mut axes = Axes {
            workloads: Workloads::List(&workloads),
            faults: &[FaultPreset::None, FaultPreset::Starvation],
            resilient: &[true, false, true],
            policies: &policies,
            ..Axes::default()
        };
        let extra = [JobSpec::new(PolicySpec::Asap, WorkloadSpec::Experiment2(3))];
        axes.extra_jobs = &extra;
        let repeats = |axes: &Axes<'_>| {
            let mut repeats = 0;
            for (index, job) in axes.iter() {
                let first = axes.first_with_run_key(index, &job);
                let scan = axes
                    .iter()
                    .find(|(_, other)| run_key(other) == run_key(&job));
                assert_eq!(Some(first), scan.map(|(i, _)| i), "job {index}");
                assert!(index - first < axes.run_key_reach());
                assert_eq!(axes.policy_at(index), Some(&job.policy));
                repeats += u64::from(first < index);
            }
            assert_eq!(axes.policy_at(axes.len()), None);
            repeats
        };
        assert_eq!(repeats(&axes), 2 * (2 * 2 + 2));
        axes.inject_panic = true;
        assert_eq!(repeats(&axes), 2 * 2 * 2, "only the identical specs");
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
}
