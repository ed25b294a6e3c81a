//! Turns one [`JobSpec`] into simulation metrics.
//!
//! Everything a job needs (trace, device, policy, storage, predictor)
//! is constructed *inside* the job from its spec, so specs — plain data
//! — are all that crosses thread boundaries. The parts jobs share, the
//! scenario and the sleep schedules planned on it, are remembered per
//! thread: a grid's workload and device axes are its outermost, so
//! consecutive jobs on a worker almost always ask for the scenario the
//! previous one built, and for a schedule it already planned.

use std::cell::RefCell;
use std::rc::Rc;

use fcdpm_core::dpm::{OracleSleep, PredictiveSleep, SleepPolicy};
use fcdpm_core::policy::{
    AsapDpm, ConvDpm, FcOutputPolicy, OutputLevels, PolicyPhase, Quantized, ResilientPolicy,
    SegmentPlan, WindowedAverage,
};
use fcdpm_core::FuelOptimizer;
use fcdpm_fuelcell::{GibbsCoefficient, HydrogenTank, LinearEfficiency};
use fcdpm_predict::{
    AdaptiveLearningTree, ExponentialAverage, LastValue, Predictor, SlidingWindowRegression,
};
use fcdpm_sim::{fixture, HybridSimulator, SimMetrics, SlotSchedule};
use fcdpm_storage::{ChargeStorage, KineticBattery, SuperCapacitor};
use fcdpm_units::{Amps, Charge, CurrentRange, Seconds, Volts, Watts};
use fcdpm_workload::{CamcorderTrace, LoadProfile, Scenario, SyntheticTrace, TaskSlot, Trace};

use serde::{Deserialize, Serialize};

use crate::check;
use crate::spec::{DevicePreset, JobSpec, PolicySpec, PredictorSpec, StorageSpec, WorkloadSpec};

/// The paper-facing numbers extracted from one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobMetrics {
    /// Fuel consumed, `∫ I_fc dt`, in A·s.
    pub fuel_as: f64,
    /// Mean stack current (the fuel rate) in A.
    pub mean_stack_current_a: f64,
    /// Energy conversion efficiency of the run, Equation 1:
    /// `P_out/P_in = (V_F/ζ) · delivered/fuel` — the delivered-to-fuel
    /// charge ratio mapped back from the stack's charge plane by the
    /// efficiency model's lumped coefficient. Bounded by α (0.45).
    pub conversion_efficiency: f64,
    /// Projected lifetime on the reference 10 A·h tank, in hours.
    pub lifetime_h: f64,
    /// Simulated wall-clock duration in s.
    pub duration_s: f64,
    /// Sleeps taken / slots simulated.
    pub sleeps: usize,
    /// Slots simulated (0 for profile-driven multi-device runs).
    pub slots: usize,
    /// Charge bled through the overflow by-pass, in A·s.
    pub bled_as: f64,
    /// Unserved load charge (brownouts), in A·s.
    pub deficit_as: f64,
    /// Time spent browning out, in s (step-size invariant).
    pub deficit_time_s: f64,
    /// Final storage state of charge, in A·s.
    pub final_soc_as: f64,
    /// Control chunks integrated individually.
    pub chunks_stepped: u64,
    /// Control chunks folded into closed-form segment updates.
    pub chunks_coalesced: u64,
    /// Policy consultations (one `begin_segment` plan per plan phase).
    pub policy_consultations: u64,
    /// Fault events applied by the injected schedule.
    pub faults_applied: u64,
    /// Downward transitions the resilient degradation ladder took.
    pub degradations: u64,
    /// Time spent in a degraded (fallback) policy mode, in s.
    pub time_in_fallback_s: f64,
    /// Brownout time accrued while a fault was active, in s.
    pub fault_deficit_time_s: f64,
}

impl JobMetrics {
    fn from_sim(m: &SimMetrics, energy_coefficient: f64) -> Self {
        let rate = m.mean_stack_current();
        let tank = HydrogenTank::from_stack_charge(Charge::from_amp_hours(10.0));
        let lifetime_h = if rate.amps() > 0.0 {
            tank.lifetime_at(rate).seconds() / 3600.0
        } else {
            f64::INFINITY
        };
        let fuel = m.fuel.total();
        // Delivered and stack charge live on different voltage planes
        // (Eq. 4 divides by η_s·ζ/V_F), so the raw charge ratio exceeds
        // 1 at low currents; scaling by V_F/ζ recovers the physical
        // energy efficiency η_s of Equation 1.
        let conversion_efficiency = if fuel.is_zero() {
            0.0
        } else {
            energy_coefficient * (m.delivered_charge / fuel)
        };
        Self {
            fuel_as: fuel.amp_seconds(),
            mean_stack_current_a: rate.amps(),
            conversion_efficiency,
            lifetime_h,
            duration_s: m.duration().seconds(),
            sleeps: m.sleeps,
            slots: m.slots,
            bled_as: m.bled_charge.amp_seconds(),
            deficit_as: m.deficit_charge.amp_seconds(),
            deficit_time_s: m.deficit_time.seconds(),
            final_soc_as: m.final_soc.amp_seconds(),
            chunks_stepped: m.chunks_stepped,
            chunks_coalesced: m.chunks_coalesced,
            policy_consultations: m.policy_consultations,
            faults_applied: m.faults_applied,
            degradations: m.degradations,
            time_in_fallback_s: m.time_in_fallback.seconds(),
            fault_deficit_time_s: m.fault_deficit_time.seconds(),
        }
    }
}

/// splitmix64: the standard 64-bit mixing finalizer, used to jitter the
/// per-period DVS work deterministically from the seed.
fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds the DVS platform scenario: evaluate the quadratic-example
/// voltage-scalable device for a seed-varied periodic task, pick the
/// fuel-averaged optimal speed level *per period*, and lower the result
/// into a slot-structured trace. Slot structure is the point — every
/// DPM policy *and* every fault schedule applies unchanged, closing the
/// gap where `faults` used to be meaningless on DVS workloads.
fn build_dvs_scenario(seed: u64) -> Result<Scenario, String> {
    let dvs_device = fcdpm_dvs::DvsDevice::quadratic_example();
    let efficiency = LinearEfficiency::dac07();
    let period = Seconds::new(12.0);
    let deadline = Seconds::new(10.0);
    // Seed-varied nominal work, jittered per period inside the device's
    // feasible band: every nominal straddles the work = 6.0 s boundary
    // where the per-period optimal level flips between 0.6 (4.2 W,
    // under the canonical 0.47 A starvation cap at 12 V) and 0.8
    // (7.1 W, above it). The irregularity matters as much as the
    // magnitude — prediction-driven policies genuinely mispredict, and
    // idle draws sit just under the cap (below) so a starved fuel cell
    // cannot hide behind the battery: fault schedules bite on DVS
    // platforms, and reserve management measurably changes the
    // brown-out time.
    let nominal_work_s = 6.0 + (seed % 5) as f64 * 0.125;
    let mut slots = Vec::with_capacity(120);
    let mut nominal_power = None;
    for index in 0..120u64 {
        let unit = (splitmix64(seed ^ index) >> 11) as f64 / (1u64 << 53) as f64;
        let work_s = (nominal_work_s + (unit - 0.5) * 1.5).clamp(5.5, 7.5);
        let task = fcdpm_dvs::DvsTask::new(Seconds::new(work_s), period, deadline)
            .map_err(|e| format!("dvs task: {e}"))?;
        let eval = fcdpm_dvs::evaluate(&dvs_device, &task, &efficiency)
            .map_err(|e| format!("dvs evaluation: {e}"))?;
        let chosen = eval
            .fuel_averaged_optimal()
            .ok_or_else(|| "no feasible dvs speed level".to_owned())?;
        let exec = chosen.level.exec_time(task.work());
        slots.push(TaskSlot::new(
            (period - exec).max_zero(),
            exec,
            chosen.level.power,
        ));
        nominal_power.get_or_insert(chosen.level.power);
    }
    let trace = Trace::with_name("dvs-jittered", slots);
    let run_power = nominal_power.ok_or_else(|| "empty dvs trace".to_owned())?;
    let device = fcdpm_device::DeviceSpec::builder("dvs platform")
        .bus_voltage(Volts::new(12.0))
        .run_power(run_power)
        .standby_power(Watts::new(4.8))
        .sleep_power(Watts::new(3.6))
        .power_down(Seconds::new(0.3), Watts::new(1.2))
        .wake_up(Seconds::new(0.3), Watts::new(1.2))
        .build()
        .map_err(|e| format!("dvs platform device: {e}"))?;
    let run_current = device.mode_current(fcdpm_device::PowerMode::Run);
    Ok(Scenario {
        name: "DVS platform (per-period fuel-averaged optimal level)".to_owned(),
        trace,
        device,
        rho: 0.5,
        sigma: 0.5,
        active_current_estimate: Some(run_current),
    })
}

fn build_scenario(spec: &JobSpec) -> Result<Scenario, String> {
    let mut scenario = match spec.workload {
        WorkloadSpec::Experiment1(seed) => Scenario::experiment1_seeded(seed),
        WorkloadSpec::Experiment2(seed) => Scenario::experiment2_seeded(seed),
        WorkloadSpec::Dvs(seed) => build_dvs_scenario(seed)?,
        WorkloadSpec::MultiDevice(_) => {
            return Err("multi-device workloads have no single scenario".to_owned())
        }
    };
    match spec.device {
        None | Some(DevicePreset::Default) => {}
        Some(DevicePreset::DvdCamcorder) => {
            scenario.device = fcdpm_device::presets::dvd_camcorder();
        }
        Some(DevicePreset::Experiment2) => {
            scenario.device = fcdpm_device::presets::experiment2_device();
        }
    }
    Ok(scenario)
}

/// What [`build_scenario`] reads from a spec, and so the memo's key.
type ScenarioKey = (WorkloadSpec, Option<DevicePreset>);

/// Most sleep schedules a worker keeps. A scenario is planned once per
/// predictor its jobs name (four on the perfbench sweep, one on the
/// fleet), so eight leaves room; past it the last entry is re-planned.
const MAX_SCHEDULES: usize = 8;

/// One worker's memo: its last scenario, and the sleep schedules planned
/// on it, one per predictor.
struct Memo {
    scenario: Option<(ScenarioKey, Rc<Scenario>)>,
    /// `schedules[..fresh]` were planned on `scenario`, for the predictor
    /// beside each; the rest are stale buffers, refilled in place by the
    /// next plans.
    schedules: Vec<(Option<PredictorSpec>, Rc<SlotSchedule>)>,
    fresh: usize,
}

thread_local! {
    /// This thread's memo.
    static MEMO: RefCell<Memo> = const {
        RefCell::new(Memo {
            scenario: None,
            schedules: Vec::new(),
            fresh: 0,
        })
    };
}

/// [`build_scenario`] behind a one-entry, per-thread memo. Scenarios
/// are immutable once built, so a hit is indistinguishable from a
/// rebuild; errors are returned, never remembered.
fn scenario_for(spec: &JobSpec) -> Result<Rc<Scenario>, String> {
    let hit = MEMO.with_borrow(|memo| {
        memo.scenario
            .as_ref()
            .filter(|((workload, device), _)| *workload == spec.workload && *device == spec.device)
            .map(|(_, scenario)| Rc::clone(scenario))
    });
    if let Some(scenario) = hit {
        return Ok(scenario);
    }
    let scenario = Rc::new(build_scenario(spec)?);
    let key = (spec.workload.clone(), spec.device.clone());
    MEMO.with_borrow_mut(|memo| {
        memo.scenario = Some((key, Rc::clone(&scenario)));
        memo.fresh = 0;
    });
    Ok(scenario)
}

/// Predictor equality for the memo: bitwise on an exponential average's
/// ρ, so an explicit NaN (the scenario's own ρ) finds its schedule and
/// `-0.0` never shares one with `0.0`.
fn same_predictor(a: &Option<PredictorSpec>, b: &Option<PredictorSpec>) -> bool {
    match (a, b) {
        (Some(PredictorSpec::Exponential(x)), Some(PredictorSpec::Exponential(y))) => {
            x.to_bits() == y.to_bits()
        }
        _ => a == b,
    }
}

/// The sleep schedule of `spec`'s predictor on `scenario` (the thread's
/// memoized one, from [`scenario_for`]), planned on a miss by `sim`.
/// The plan reads only the trace, the device and the predictor, so a
/// hit is indistinguishable from a re-plan whatever the job's policy,
/// storage, capacity, β or faults.
fn schedule_for(
    spec: &JobSpec,
    scenario: &Rc<Scenario>,
    sim: &HybridSimulator<'_>,
) -> Rc<SlotSchedule> {
    MEMO.with_borrow_mut(|memo| {
        debug_assert!(memo
            .scenario
            .as_ref()
            .is_some_and(|(_, memoized)| Rc::ptr_eq(memoized, scenario)));
        let fresh = memo.fresh;
        if let Some((_, schedule)) = memo.schedules[..fresh]
            .iter()
            .find(|(predictor, _)| same_predictor(predictor, &spec.predictor))
        {
            return Rc::clone(schedule);
        }
        // Entry `at` is stale while it is refilled, so a plan that
        // panics leaves no half-planned schedule behind a key.
        let at = fresh.min(MAX_SCHEDULES - 1);
        memo.fresh = at;
        if at == memo.schedules.len() {
            memo.schedules
                .push((None, Rc::new(SlotSchedule::default())));
        }
        let (predictor, schedule) = &mut memo.schedules[at];
        sim.plan_into(
            Rc::make_mut(schedule),
            &scenario.trace,
            build_sleep(spec, scenario).as_mut(),
        );
        predictor.clone_from(&spec.predictor);
        memo.fresh = at + 1;
        Rc::clone(schedule)
    })
}

fn build_storage(spec: &JobSpec, capacity: Charge) -> Box<dyn ChargeStorage> {
    match spec.storage.as_ref().unwrap_or(&StorageSpec::Ideal) {
        StorageSpec::Ideal => Box::new(fixture::storage_at(capacity)),
        StorageSpec::SuperCapacitor => {
            // 6–12 V window: capacitance sized so C·ΔV equals the
            // requested capacity, half-charged like the other models.
            let window = Volts::new(6.0);
            let farads = capacity.amp_seconds() / window.volts();
            Box::new(SuperCapacitor::new(
                farads,
                Volts::new(6.0),
                Volts::new(12.0),
                0.0,
                capacity * 0.5,
            ))
        }
        StorageSpec::Kibam => Box::new(KineticBattery::new(capacity, 0.5, 0.3, 0.01)),
    }
}

fn build_sleep(spec: &JobSpec, scenario: &Scenario) -> Box<dyn SleepPolicy> {
    let predictor: Box<dyn Predictor + Send> = match spec
        .predictor
        .as_ref()
        .unwrap_or(&PredictorSpec::Exponential(f64::NAN))
    {
        PredictorSpec::Exponential(rho) => {
            let rho = if rho.is_nan() { scenario.rho } else { *rho };
            Box::new(ExponentialAverage::new(rho))
        }
        PredictorSpec::LastValue => Box::new(LastValue::new()),
        PredictorSpec::Regression(window) => Box::new(SlidingWindowRegression::new(*window)),
        PredictorSpec::LearningTree => {
            Box::new(AdaptiveLearningTree::with_uniform_bins(8.0, 20.0, 6, 3))
        }
        PredictorSpec::Oracle => {
            return Box::new(OracleSleep::new(scenario.trace.iter().map(|s| s.idle)));
        }
    };
    Box::new(PredictiveSleep::with_predictor(predictor))
}

/// Holds the FC at a fixed output current regardless of load or SoC.
/// Mostly useful as a baseline and for feasibility probing; the setpoint
/// is validated against the load-following range before construction.
#[derive(Debug)]
struct ConstantOutput {
    current: Amps,
    name: String,
}

impl ConstantOutput {
    fn new(current: Amps) -> Self {
        let name = format!("Constant({} A)", current.amps());
        Self { current, name }
    }
}

impl FcOutputPolicy for ConstantOutput {
    fn name(&self) -> &str {
        &self.name
    }

    fn begin_segment(&mut self, _: PolicyPhase, _: Amps, _: Charge, _: Seconds) -> SegmentPlan {
        SegmentPlan::Steady(self.current)
    }
}

/// Builds the spec's FC output policy. `slots` carries the scenario and
/// planning optimizer FC-DPM needs; profile-driven (multi-device) runs
/// pass `None`, and a policy that plans per slot is then an error.
fn build_policy(
    spec: &JobSpec,
    slots: Option<(&Scenario, FuelOptimizer)>,
    capacity: Charge,
) -> Result<Box<dyn FcOutputPolicy + Send>, String> {
    let fc = || match slots {
        Some((scenario, optimizer)) => Ok(fixture::fc_dpm(scenario, capacity, optimizer)),
        None => Err(format!(
            "policy `{}` needs slot structure; multi-device runs are profile-driven",
            spec.policy.label()
        )),
    };
    Ok(match spec.policy {
        PolicySpec::Conv => Box::new(ConvDpm::dac07()),
        PolicySpec::Asap => Box::new(AsapDpm::dac07(capacity)),
        PolicySpec::FcDpm => Box::new(fc()?),
        PolicySpec::WindowedAverage => Box::new(WindowedAverage::dac07()),
        PolicySpec::Quantized(count) => {
            let levels = OutputLevels::uniform(CurrentRange::dac07(), count);
            Box::new(Quantized::new(fc()?, levels))
        }
        // Range-checked by `check::policy` before this is reached.
        PolicySpec::Constant(amps) => Box::new(ConstantOutput::new(Amps::new(amps))),
    })
}

fn build_sim<'d>(
    spec: &JobSpec,
    device: &'d fcdpm_device::DeviceSpec,
) -> Result<(HybridSimulator<'d>, FuelOptimizer, f64), String> {
    let (sim, optimizer, coefficient) = match spec.beta {
        None => (
            HybridSimulator::dac07(device),
            FuelOptimizer::dac07(),
            LinearEfficiency::dac07().coefficient(),
        ),
        Some(beta) => {
            let eff =
                LinearEfficiency::new(0.45, beta, Volts::new(12.0), GibbsCoefficient::dac07())
                    .map_err(|e| format!("invalid beta {beta}: {e}"))?;
            let sim = HybridSimulator::new(
                device,
                Box::new(eff),
                CurrentRange::dac07(),
                Seconds::new(0.5),
            )
            .map_err(|e| format!("simulator config: {e}"))?;
            (
                sim,
                FuelOptimizer::new(eff, CurrentRange::dac07()),
                eff.coefficient(),
            )
        }
    };
    let sim = match spec.buffer_path_efficiency {
        None => sim,
        Some(eta) => sim
            .with_buffer_path_efficiency(eta, eta)
            .map_err(|e| format!("invalid path efficiency {eta}: {e}"))?,
    };
    let sim = match &spec.faults {
        None => sim,
        Some(schedule) => sim.with_faults(schedule.clone()),
    };
    Ok((sim, optimizer, coefficient))
}

/// Wraps `policy` in the graceful-degradation ladder when the spec asks
/// for it.
fn wrap_resilient(
    spec: &JobSpec,
    policy: Box<dyn FcOutputPolicy + Send>,
) -> Box<dyn FcOutputPolicy + Send> {
    if spec.resilient == Some(true) {
        Box::new(ResilientPolicy::new(policy, CurrentRange::dac07()))
    } else {
        policy
    }
}

/// Builds the three multi-device load profiles (camcorder, radio,
/// sensor), with per-device trace seeds derived from `seed`.
#[must_use]
pub fn multi_device_profiles(seed: u64) -> [LoadProfile; 3] {
    use fcdpm_device::{DeviceSpec, SlotTimeline};

    fn device_profile(name: &str, spec: &DeviceSpec, trace: &Trace) -> LoadProfile {
        let t_be = spec.break_even_time();
        let timelines: Vec<SlotTimeline> = trace
            .slots()
            .iter()
            .map(|s| {
                SlotTimeline::build(
                    spec,
                    s.idle,
                    s.idle >= t_be,
                    s.active,
                    s.active_current(spec.bus_voltage()),
                )
            })
            .collect();
        LoadProfile::from_timelines(name, &timelines)
    }

    let camcorder = fcdpm_device::presets::dvd_camcorder();
    let cam_trace = CamcorderTrace::dac07().seed(seed).build();
    let radio = fcdpm_device::presets::wireless_radio();
    let radio_trace = SyntheticTrace::dac07()
        .seed(seed.wrapping_add(1))
        .idle_range(Seconds::new(3.0), Seconds::new(40.0))
        .active_range(Seconds::new(0.5), Seconds::new(2.0))
        .power_range(Watts::new(5.0), Watts::new(7.0))
        .build();
    let sensor = fcdpm_device::presets::sensor_node();
    let sensor_trace = SyntheticTrace::dac07()
        .seed(seed.wrapping_add(2))
        .idle_range(Seconds::new(30.0), Seconds::new(120.0))
        .active_range(Seconds::new(4.0), Seconds::new(10.0))
        .power_range(Watts::new(2.0), Watts::new(3.0))
        .build();

    [
        device_profile("camcorder", &camcorder, &cam_trace),
        device_profile("radio", &radio, &radio_trace),
        device_profile("sensor", &sensor, &sensor_trace),
    ]
}

/// The merged multi-device aggregate profile (see
/// [`multi_device_profiles`]).
#[must_use]
pub fn multi_device_profile(seed: u64) -> LoadProfile {
    LoadProfile::merge(&multi_device_profiles(seed))
}

fn execute_multi_device(spec: &JobSpec, seed: u64) -> Result<JobMetrics, String> {
    let capacity = Charge::from_milliamp_minutes(spec.capacity_mamin_or_default());
    let mut policy = wrap_resilient(spec, build_policy(spec, None, capacity)?);
    let device = fcdpm_device::presets::dvd_camcorder(); // spec unused on profiles
    let (sim, _optimizer, coefficient) = build_sim(spec, &device)?;
    let profile = multi_device_profile(seed);
    let mut storage = build_storage(spec, capacity);
    let metrics = sim
        .run_profile(&profile, policy.as_mut(), storage.as_mut())
        .map_err(|e| format!("profile simulation: {e}"))?
        .metrics;
    Ok(JobMetrics::from_sim(&metrics, coefficient))
}

/// Executes one job.
///
/// # Errors
///
/// Returns a message for invalid specs (e.g. a slot policy on a
/// profile workload) and for simulator errors.
///
/// # Panics
///
/// Panics when `inject_panic` is set — deliberately, so callers can
/// exercise the pool's fault isolation.
pub fn execute(spec: &JobSpec) -> Result<JobMetrics, String> {
    assert!(
        spec.inject_panic != Some(true),
        "injected panic (inject_panic = true)"
    );
    check::policy(&spec.policy)?;
    if let Some(schedule) = &spec.faults {
        check::faults(schedule)?;
    }
    if let WorkloadSpec::MultiDevice(seed) = spec.workload {
        if spec.faults.as_ref().is_some_and(|s| !s.is_empty()) {
            return Err(
                "fault injection needs slot structure; multi-device runs are profile-driven"
                    .to_owned(),
            );
        }
        return execute_multi_device(spec, seed);
    }
    let scenario = scenario_for(spec)?;
    let capacity = Charge::from_milliamp_minutes(spec.capacity_mamin_or_default());
    let (sim, optimizer, coefficient) = build_sim(spec, &scenario.device)?;
    let schedule = schedule_for(spec, &scenario, &sim);
    let mut policy = wrap_resilient(
        spec,
        build_policy(spec, Some((&*scenario, optimizer)), capacity)?,
    );
    let mut storage = build_storage(spec, capacity);
    let metrics = sim
        .run_schedule(&schedule, policy.as_mut(), storage.as_mut())
        .map_err(|e| format!("simulation: {e}"))?
        .metrics;
    Ok(JobMetrics::from_sim(&metrics, coefficient))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::JobSpec;

    const SEED: u64 = 0xDAC0_2007;

    #[test]
    fn reference_policies_reproduce_table_2_ordering() {
        let conv = execute(&JobSpec::new(
            PolicySpec::Conv,
            WorkloadSpec::Experiment1(SEED),
        ))
        .expect("conv runs");
        let asap = execute(&JobSpec::new(
            PolicySpec::Asap,
            WorkloadSpec::Experiment1(SEED),
        ))
        .expect("asap runs");
        let fc = execute(&JobSpec::new(
            PolicySpec::FcDpm,
            WorkloadSpec::Experiment1(SEED),
        ))
        .expect("fcdpm runs");
        assert!(fc.mean_stack_current_a < asap.mean_stack_current_a);
        assert!(asap.mean_stack_current_a < conv.mean_stack_current_a);
        assert!(fc.lifetime_h > asap.lifetime_h);
    }

    #[test]
    fn runner_and_fixture_build_the_same_runs() {
        use fcdpm_sim::fixture::{run_reference, ReferencePolicy};
        let coefficient = LinearEfficiency::dac07().coefficient();
        for seed in [SEED, 7] {
            let workloads = [
                (
                    WorkloadSpec::Experiment1(seed),
                    Scenario::experiment1_seeded(seed),
                ),
                (
                    WorkloadSpec::Experiment2(seed),
                    Scenario::experiment2_seeded(seed),
                ),
            ];
            for (workload, scenario) in workloads {
                for reference in ReferencePolicy::ALL {
                    let policy = match reference {
                        ReferencePolicy::Conv => PolicySpec::Conv,
                        ReferencePolicy::Asap => PolicySpec::Asap,
                        ReferencePolicy::FcDpm => PolicySpec::FcDpm,
                        ReferencePolicy::Windowed => PolicySpec::WindowedAverage,
                        ReferencePolicy::Quantized => PolicySpec::Quantized(12),
                    };
                    let job = execute(&JobSpec::new(policy, workload.clone())).expect("runs");
                    let fixture = run_reference(&scenario, reference).expect("runs");
                    assert_eq!(
                        job,
                        JobMetrics::from_sim(&fixture, coefficient),
                        "{} on {workload:?}",
                        reference.label()
                    );
                }
            }
        }
    }

    #[test]
    fn conversion_efficiency_is_physical_for_every_policy() {
        // Regression: the raw delivered/fuel charge ratio once leaked
        // into reports as an "efficiency" of 1.021 for ASAP. The
        // Equation-1 energy efficiency can never exceed the model's
        // intercept α = 0.45, let alone 1.
        let policies = [
            PolicySpec::Conv,
            PolicySpec::Asap,
            PolicySpec::FcDpm,
            PolicySpec::WindowedAverage,
            PolicySpec::Quantized(12),
            PolicySpec::Constant(0.6),
        ];
        for policy in policies {
            let spec = JobSpec::new(policy.clone(), WorkloadSpec::Experiment1(SEED));
            let m = execute(&spec).expect("runs");
            assert!(
                m.conversion_efficiency > 0.0 && m.conversion_efficiency <= 1.0 + 1e-9,
                "{}: unphysical conversion efficiency {}",
                policy.label(),
                m.conversion_efficiency
            );
            assert!(
                m.conversion_efficiency <= 0.45 + 1e-9,
                "{}: efficiency {} exceeds the model intercept",
                policy.label(),
                m.conversion_efficiency
            );
        }
    }

    #[test]
    fn execution_is_deterministic() {
        let spec = JobSpec::new(PolicySpec::FcDpm, WorkloadSpec::Experiment1(SEED));
        assert_eq!(execute(&spec).unwrap(), execute(&spec).unwrap());
    }

    #[test]
    fn oracle_predictor_beats_the_exponential_average() {
        let mut online = JobSpec::new(PolicySpec::FcDpm, WorkloadSpec::Experiment1(SEED));
        online.predictor = Some(PredictorSpec::Exponential(0.5));
        let mut oracle = online.clone();
        oracle.predictor = Some(PredictorSpec::Oracle);
        let online = execute(&online).unwrap();
        let oracle = execute(&oracle).unwrap();
        assert!(oracle.mean_stack_current_a <= online.mean_stack_current_a * 1.001);
    }

    #[test]
    fn storage_models_all_run() {
        for storage in [
            StorageSpec::Ideal,
            StorageSpec::SuperCapacitor,
            StorageSpec::Kibam,
        ] {
            let mut spec = JobSpec::new(PolicySpec::FcDpm, WorkloadSpec::Experiment1(SEED));
            spec.storage = Some(storage);
            let metrics = execute(&spec).expect("runs");
            assert!(metrics.fuel_as > 0.0);
        }
    }

    #[test]
    fn slot_policy_on_multi_device_is_an_error() {
        let spec = JobSpec::new(PolicySpec::FcDpm, WorkloadSpec::MultiDevice(1));
        let err = execute(&spec).unwrap_err();
        assert!(err.contains("slot structure"));
    }

    #[test]
    fn multi_device_runs_slot_free_policies() {
        let spec = JobSpec::new(PolicySpec::WindowedAverage, WorkloadSpec::MultiDevice(1));
        let metrics = execute(&spec).expect("runs");
        assert!(metrics.fuel_as > 0.0);
        assert_eq!(metrics.slots, 0);
    }

    #[test]
    fn constant_policy_holds_its_setpoint() {
        let spec = JobSpec::new(PolicySpec::Constant(0.6), WorkloadSpec::Experiment1(SEED));
        let metrics = execute(&spec).expect("in-range constant runs");
        assert!(metrics.fuel_as > 0.0);
        assert_eq!(spec.policy.label(), "const0.6");
        // Slot-free, so it also drives the multi-device profile.
        let multi = JobSpec::new(PolicySpec::Constant(0.6), WorkloadSpec::MultiDevice(1));
        assert!(execute(&multi).expect("slot-free").fuel_as > 0.0);
    }

    #[test]
    fn out_of_range_constant_is_rejected() {
        for amps in [0.05, 1.3, f64::NAN] {
            let spec = JobSpec::new(PolicySpec::Constant(amps), WorkloadSpec::Experiment1(SEED));
            let err = execute(&spec).unwrap_err();
            assert!(err.contains("load-following range"), "{err}");
        }
    }

    #[test]
    fn empty_fault_schedule_is_bit_identical_to_none() {
        let plain = JobSpec::new(PolicySpec::FcDpm, WorkloadSpec::Experiment1(SEED));
        let mut empty = plain.clone();
        empty.faults = Some(fcdpm_faults::FaultSchedule::none(SEED));
        let a = execute(&plain).unwrap();
        let b = execute(&empty).unwrap();
        assert_eq!(a, b);
        assert_eq!(b.faults_applied, 0);
        assert_eq!(b.degradations, 0);
        assert_eq!(b.time_in_fallback_s, 0.0);
    }

    #[test]
    fn invalid_fault_schedule_is_rejected_before_running() {
        let mut spec = JobSpec::new(PolicySpec::FcDpm, WorkloadSpec::Experiment1(SEED));
        spec.faults = crate::FaultPreset::Starvation.schedule(SEED);
        if let Some(s) = spec.faults.as_mut() {
            s.events[0].at_s = f64::NAN;
        }
        let err = execute(&spec).unwrap_err();
        assert!(err.contains("fault schedule"), "{err}");
    }

    #[test]
    fn faults_on_multi_device_are_rejected() {
        let mut spec = JobSpec::new(PolicySpec::WindowedAverage, WorkloadSpec::MultiDevice(1));
        spec.faults = crate::FaultPreset::Starvation.schedule(SEED);
        let err = execute(&spec).unwrap_err();
        assert!(err.contains("slot structure"), "{err}");
        // An empty schedule is no fault injection at all, so it runs.
        spec.faults = Some(fcdpm_faults::FaultSchedule::none(SEED));
        assert!(execute(&spec).is_ok());
    }

    #[test]
    fn resilient_wrapper_lowers_starvation_deficit() {
        let mut plain = JobSpec::new(PolicySpec::FcDpm, WorkloadSpec::Experiment1(SEED));
        plain.faults = crate::FaultPreset::Starvation.schedule(SEED);
        let mut wrapped = plain.clone();
        wrapped.resilient = Some(true);
        let plain = execute(&plain).unwrap();
        let wrapped = execute(&wrapped).unwrap();
        assert!(plain.faults_applied > 0);
        assert!(
            wrapped.deficit_time_s < plain.deficit_time_s,
            "wrapped {} s must brown out strictly less than unwrapped {} s",
            wrapped.deficit_time_s,
            plain.deficit_time_s
        );
        assert!(wrapped.degradations > 0);
        assert!(wrapped.time_in_fallback_s > 0.0);
    }

    #[test]
    fn dvs_workload_executes_and_fault_schedules_apply() {
        // The ROADMAP gap this closes: `faults` on a DVS workload used
        // to be impossible (no slot structure). The lowered periodic
        // trace is slot-structured, so the canonical starvation window
        // lands and the resilient ladder reacts — pin the seeded
        // wrapped-vs-unwrapped deficit ordering like experiment 1 does.
        let mut plain = JobSpec::new(PolicySpec::FcDpm, WorkloadSpec::Dvs(SEED));
        plain.faults = crate::FaultPreset::Starvation.schedule(SEED);
        let mut wrapped = plain.clone();
        wrapped.resilient = Some(true);
        let plain = execute(&plain).unwrap();
        let wrapped = execute(&wrapped).unwrap();
        assert!(plain.faults_applied > 0, "schedule applies to DVS slots");
        assert!(
            wrapped.deficit_time_s < plain.deficit_time_s,
            "wrapped {} s must brown out strictly less than unwrapped {} s",
            wrapped.deficit_time_s,
            plain.deficit_time_s
        );
        assert!(wrapped.degradations > 0);
        assert!(wrapped.time_in_fallback_s > 0.0);
    }

    #[test]
    fn dvs_workload_is_deterministic_and_seed_sensitive() {
        let spec = JobSpec::new(PolicySpec::FcDpm, WorkloadSpec::Dvs(SEED));
        let a = execute(&spec).expect("runs");
        assert_eq!(a, execute(&spec).expect("runs"));
        assert!(a.fuel_as > 0.0);
        assert!(a.slots > 0, "the lowered trace is slot-structured");
        let other = JobSpec::new(PolicySpec::FcDpm, WorkloadSpec::Dvs(SEED + 1));
        let b = execute(&other).expect("runs");
        assert_ne!(a.fuel_as, b.fuel_as, "seed varies the task");
    }

    #[test]
    fn injected_panic_panics() {
        let mut spec = JobSpec::new(PolicySpec::Conv, WorkloadSpec::Experiment1(SEED));
        spec.inject_panic = Some(true);
        let result = std::panic::catch_unwind(|| execute(&spec));
        assert!(result.is_err());
    }
}
