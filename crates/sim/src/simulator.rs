//! The hybrid-source co-simulator.

use fcdpm_core::dpm::SleepPolicy;
use fcdpm_core::policy::{
    ActiveStart, FcOutputPolicy, OperatingConditions, PolicyPhase, SegmentPlan, SlotEnd, SlotStart,
};
use fcdpm_device::{DeviceSpec, SlotTimeline};
use fcdpm_faults::{FaultSchedule, FaultState};
use fcdpm_fuelcell::LinearEfficiency;
use fcdpm_storage::{ChargeStorage, StorageFlow};
use fcdpm_units::{Amps, Charge, CurrentRange, Seconds};
use fcdpm_workload::Trace;

use crate::schedule::{PlannedSegment, PlannedSlot};
use crate::{FuelFlowModel, ProfileRecorder, SimError, SimMetrics, SlotSchedule};

/// Residual floor for the chunk loop, as a fraction of the control step:
/// `remaining -= dt` accumulates floating-point error, and without a
/// floor a segment whose duration is not an exact multiple of the step
/// can leave a ~1e-16 s ghost chunk that hits the recorder and skews the
/// work counters. A final chunk is widened to absorb any residual below
/// this fraction of the step.
const RESIDUAL_FLOOR_FRACTION: f64 = 1e-9;

/// Wall-clock duration of the brownout inside one integration step.
///
/// Within a step the storage discharges at a constant rate, so the
/// browned-out portion is the deficit's share of the total demanded
/// charge. This makes the sum invariant under the step size and under
/// chunk coalescing, unlike a chunk count.
fn deficit_time_of(flow: &StorageFlow, dt: Seconds) -> Seconds {
    if flow.deficit.is_zero() {
        return Seconds::ZERO;
    }
    let demanded = flow.deficit + flow.discharged;
    if demanded.is_zero() {
        dt
    } else {
        dt * (flow.deficit / demanded)
    }
}

/// The outcome of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Aggregate metrics of the run.
    pub metrics: SimMetrics,
}

/// Co-simulates a device trace against a DPM policy, an FC output policy
/// and a charge-storage element (see the [crate docs](crate) for the
/// wiring diagram).
///
/// The simulator integrates exactly: every segment of the device timeline
/// is piecewise-constant, and immediately following segments with the
/// same phase and load merge into one constant-load *stretch*. The FC
/// policy plans each stretch through [`FcOutputPolicy::begin_segment`]:
/// a [`SegmentPlan::Steady`] phase integrates to the stretch (or fault
/// span) end in closed form, and a [`SegmentPlan::UntilSocCrossing`]
/// phase is split analytically at the projected state-of-charge crossing
/// ([`ChargeStorage::time_to_soc`]) and re-planned — this is what lets
/// ASAP-DPM's recharge trigger fire "as soon as possible" mid-segment
/// without stepping. Unstructured load profiles
/// ([`run_profile`](Self::run_profile)) go through the same integrator.
///
/// A slot run has two halves. [`plan`](Self::plan) replays the sleep
/// policy into a [`SlotSchedule`] (decisions and timelines), and
/// [`run_schedule`](Self::run_schedule) integrates one; [`run`](Self::run)
/// is the two in a row, so one schedule can serve many policy × storage
/// runs without changing any of them.
///
/// [`Self::without_coalescing`] integrates the identical plan sequence
/// in *control chunks* (default 0.5 s) for A/B comparison: the physics
/// agree up to floating-point accumulation order, only the work counters
/// differ.
#[derive(Debug)]
pub struct HybridSimulator<'a> {
    device: &'a DeviceSpec,
    fuel_model: Box<dyn FuelFlowModel + Send + Sync>,
    range: CurrentRange,
    control_step: Seconds,
    charger_efficiency: f64,
    discharger_efficiency: f64,
    coalescing: bool,
    faults: Option<FaultSchedule>,
}

impl<'a> HybridSimulator<'a> {
    /// Creates a simulator over an explicit fuel-flow model and
    /// load-following range.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if `control_step` is not
    /// positive.
    pub fn new(
        device: &'a DeviceSpec,
        fuel_model: Box<dyn FuelFlowModel + Send + Sync>,
        range: CurrentRange,
        control_step: Seconds,
    ) -> Result<Self, SimError> {
        if control_step <= Seconds::ZERO || !control_step.is_finite() {
            return Err(SimError::InvalidConfig {
                name: "control_step",
            });
        }
        Ok(Self {
            device,
            fuel_model,
            range,
            control_step,
            charger_efficiency: 1.0,
            discharger_efficiency: 1.0,
            coalescing: true,
            faults: None,
        })
    }

    /// Disables the chunk-coalescing fast path, forcing per-chunk
    /// integration of every plan phase. The plan sequence — merge scan,
    /// `begin_segment` consultations, crossing splits — is identical to
    /// the fast path; only the integration inside each phase is chunked.
    /// Intended for A/B comparison (the cross-path determinism suite and
    /// the bench harness); the physics results agree either way, only
    /// the work counters differ.
    #[must_use]
    pub fn without_coalescing(mut self) -> Self {
        self.coalescing = false;
        self
    }

    /// Attaches a fault schedule: the events fire at their scheduled
    /// simulated times during [`run`](Self::run) and
    /// [`run_schedule`](Self::run_schedule), reshaping the physics
    /// mid-run (efficiency fade, fuel starvation, storage fade and
    /// leakage, predictor dropout/noise). An empty schedule leaves every
    /// metric bit-identical to running without one. Profile runs
    /// ([`run_profile`](Self::run_profile)) ignore the schedule — fault
    /// injection is defined on the slot-structured path only.
    ///
    /// Validate the schedule first with [`FaultSchedule::validate`];
    /// invalid events are applied as-is.
    #[must_use]
    pub fn with_faults(mut self, schedule: FaultSchedule) -> Self {
        self.faults = Some(schedule);
        self
    }

    /// The attached fault schedule, if any.
    #[must_use]
    pub fn fault_schedule(&self) -> Option<&FaultSchedule> {
        self.faults.as_ref()
    }

    /// The operating conditions as a health-aware policy wrapper should
    /// see them: effective vs nominal range, predictor health, and state
    /// of charge as a fraction of the *effective* (fade-reduced)
    /// capacity.
    fn conditions(&self, fs: &FaultState, storage: &dyn ChargeStorage) -> OperatingConditions {
        let cap = storage.capacity() * fs.capacity_scale();
        let soc_fraction = if cap.is_zero() {
            0.0
        } else {
            storage.soc() / cap
        };
        OperatingConditions {
            effective_range: fs.effective_range(self.range),
            base_range: self.range,
            predictor_ok: fs.predictor_ok(),
            soc_fraction,
        }
    }

    /// Enforces a storage-capacity fade after an integration step: any
    /// charge above the faded capacity is routed to the bleeder by-pass,
    /// so the charge-conservation identity (`delivered = load + Δsoc +
    /// bled − deficit`) survives the fault.
    fn apply_capacity_fade(
        fs: &FaultState,
        storage: &mut dyn ChargeStorage,
        flow: &mut StorageFlow,
    ) {
        let scale = fs.capacity_scale();
        if scale >= 1.0 {
            return;
        }
        let cap = storage.capacity() * scale;
        let excess = storage.soc() - cap;
        if excess > Charge::ZERO {
            storage.set_soc(cap);
            flow.bled += excess;
        }
    }

    /// Models the charger/discharger blocks of the paper's Figure 1 as
    /// lossy paths between the bus and the storage element: only
    /// `charger` of each ampere pushed toward storage arrives, and
    /// `1/discharger` amperes must be drawn per ampere delivered. The
    /// default (both 1.0) is the paper's lossless assumption.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if either efficiency is
    /// outside `(0, 1]`.
    pub fn with_buffer_path_efficiency(
        mut self,
        charger: f64,
        discharger: f64,
    ) -> Result<Self, SimError> {
        if !(charger > 0.0 && charger <= 1.0) {
            return Err(SimError::InvalidConfig {
                name: "charger_efficiency",
            });
        }
        if !(discharger > 0.0 && discharger <= 1.0) {
            return Err(SimError::InvalidConfig {
                name: "discharger_efficiency",
            });
        }
        self.charger_efficiency = charger;
        self.discharger_efficiency = discharger;
        Ok(self)
    }

    /// Applies the Figure-1 charger/discharger losses to the bus-side
    /// imbalance `i_f − load`, returning the storage-side net current.
    fn buffer_net(&self, imbalance: Amps) -> Amps {
        if imbalance.is_negative() {
            imbalance / self.discharger_efficiency
        } else {
            imbalance * self.charger_efficiency
        }
    }

    /// The paper's configuration: linear efficiency model
    /// (α = 0.45, β = 0.13), load-following range `[0.1 A, 1.2 A]`,
    /// 0.5 s control chunks.
    #[must_use]
    pub fn dac07(device: &'a DeviceSpec) -> Self {
        Self::new(
            device,
            Box::new(LinearEfficiency::dac07()),
            CurrentRange::dac07(),
            Seconds::new(0.5),
        )
        // Invariant: 0.5 s is positive and finite, so `new` cannot
        // reject it. fcdpm-lint: allow(panic-policy)
        .expect("default control step is valid")
    }

    /// The device under simulation.
    #[must_use]
    pub fn device(&self) -> &DeviceSpec {
        self.device
    }

    /// The load-following range enforced on policy outputs.
    #[must_use]
    pub fn range(&self) -> CurrentRange {
        self.range
    }

    /// The control-chunk duration of chunked integration (inside a
    /// recorder's horizon and under
    /// [`without_coalescing`](Self::without_coalescing)).
    #[must_use]
    pub fn control_step(&self) -> Seconds {
        self.control_step
    }

    /// Integrates one whole segment in closed form under a steady
    /// setpoint: one fuel-model evaluation for the whole duration and one
    /// [`ChargeStorage::step_coalesced`] call that splits analytically at
    /// the saturation/depletion boundary.
    fn integrate_coalesced(
        &self,
        load: Amps,
        demanded: Amps,
        duration: Seconds,
        storage: &mut dyn ChargeStorage,
        metrics: &mut SimMetrics,
        faults: Option<&FaultState>,
    ) -> Result<(), SimError> {
        let range = match faults {
            Some(fs) => fs.effective_range(self.range),
            None => self.range,
        };
        let i_f = range.clamp(demanded);
        let mut i_fc = self.fuel_model.stack_current(i_f)?;
        if let Some(fs) = faults {
            let derate = fs.stack_derate(i_f);
            if derate != 1.0 {
                i_fc = i_fc * derate;
            }
        }
        metrics.fuel.consume(i_fc, duration);
        metrics.delivered_charge += i_f * duration;
        metrics.load_charge += load * duration;
        let mut net = self.buffer_net(i_f - load);
        if let Some(fs) = faults {
            if !fs.leak().is_zero() {
                net -= fs.leak();
            }
        }
        let mut flow = storage.step_coalesced(net, duration);
        if let Some(fs) = faults {
            Self::apply_capacity_fade(fs, storage, &mut flow);
        }
        metrics.bled_charge += flow.bled;
        metrics.deficit_charge += flow.deficit;
        metrics.deficit_time += deficit_time_of(&flow, duration);
        metrics.chunks_coalesced += (duration / self.control_step).ceil() as u64;
        Ok(())
    }

    /// Integrates one control chunk under an already-decided setpoint,
    /// applying any active faults (range shrink, stack derate, leak,
    /// capacity fade). Returns the clamped output and stack currents for
    /// the recorder.
    fn integrate_chunk(
        &self,
        load: Amps,
        demanded: Amps,
        dt: Seconds,
        storage: &mut dyn ChargeStorage,
        metrics: &mut SimMetrics,
        faults: Option<&FaultState>,
    ) -> Result<(Amps, Amps), SimError> {
        let range = match faults {
            Some(fs) => fs.effective_range(self.range),
            None => self.range,
        };
        let i_f = range.clamp(demanded);
        let mut i_fc = self.fuel_model.stack_current(i_f)?;
        if let Some(fs) = faults {
            let derate = fs.stack_derate(i_f);
            if derate != 1.0 {
                i_fc = i_fc * derate;
            }
        }
        metrics.fuel.consume(i_fc, dt);
        metrics.delivered_charge += i_f * dt;
        metrics.load_charge += load * dt;
        let mut net = self.buffer_net(i_f - load);
        if let Some(fs) = faults {
            if !fs.leak().is_zero() {
                net -= fs.leak();
            }
        }
        let mut flow = storage.step(net, dt);
        if let Some(fs) = faults {
            Self::apply_capacity_fade(fs, storage, &mut flow);
        }
        metrics.bled_charge += flow.bled;
        metrics.deficit_charge += flow.deficit;
        metrics.deficit_time += deficit_time_of(&flow, dt);
        metrics.chunks_stepped += 1;
        Ok((i_f, i_fc))
    }

    /// The storage-side net current a plan setpoint produces under the
    /// current fault state — the same clamp/loss/leak pipeline the
    /// integrators apply — used to project SoC-threshold crossings.
    fn plan_net(&self, demanded: Amps, load: Amps, faults: Option<&FaultState>) -> Amps {
        let range = match faults {
            Some(fs) => fs.effective_range(self.range),
            None => self.range,
        };
        let i_f = range.clamp(demanded);
        let mut net = self.buffer_net(i_f - load);
        if let Some(fs) = faults {
            if !fs.leak().is_zero() {
                net -= fs.leak();
            }
        }
        net
    }

    /// Integrates one fault-free span of a constant-load stretch under
    /// the policy's segment plans — the one integrator behind both
    /// [`run`](Self::run) and [`run_profile`](Self::run_profile).
    /// [`FcOutputPolicy::begin_segment`] is consulted once per plan
    /// phase: steady plans run to the span end, and crossing plans split
    /// analytically at the projected SoC threshold and re-plan from the
    /// policy's advanced trigger state.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn integrate_span(
        &self,
        phase: PolicyPhase,
        load: Amps,
        span: Seconds,
        time: &mut Seconds,
        policy: &mut dyn FcOutputPolicy,
        storage: &mut dyn ChargeStorage,
        metrics: &mut SimMetrics,
        faults: Option<&FaultState>,
        recorder: &mut Option<&mut ProfileRecorder>,
    ) -> Result<(), SimError> {
        let residual_floor = self.control_step * RESIDUAL_FLOOR_FRACTION;
        let mut left = span;
        while left > Seconds::ZERO {
            let plan = policy.begin_segment(phase, load, storage.soc(), left);
            metrics.policy_consultations += 1;
            let (demanded, mut phase_len) = match plan {
                SegmentPlan::Steady(i) => (i, left),
                SegmentPlan::UntilSocCrossing {
                    current, threshold, ..
                } => {
                    let net = self.plan_net(current, load, faults);
                    match storage.time_to_soc(net, threshold, left) {
                        // Already on the threshold (within residual):
                        // advance one control chunk at the planned
                        // setpoint so the next re-plan sees the strict
                        // side and the loop cannot stall.
                        Some(t) if t <= residual_floor => (current, self.control_step.min(left)),
                        // Overshoot the crossing by the residual floor
                        // so the landing side of the threshold is the
                        // same whichever integration mode accumulated
                        // the rounding error.
                        Some(t) => (current, (t + residual_floor).min(left)),
                        None => (current, left),
                    }
                }
            };
            if left - phase_len <= residual_floor {
                phase_len = left;
            }
            self.integrate_phase(
                load, demanded, phase_len, time, storage, metrics, faults, recorder,
            )?;
            left -= phase_len;
        }
        Ok(())
    }

    /// Integrates one plan phase: in closed form on the fast path, chunk
    /// by chunk (feeding the recorder) when coalescing is off or the
    /// recorder is still inside its horizon. Both shapes drive the same
    /// setpoint over the same duration, so they agree to float residual.
    #[allow(clippy::too_many_arguments)]
    fn integrate_phase(
        &self,
        load: Amps,
        demanded: Amps,
        duration: Seconds,
        time: &mut Seconds,
        storage: &mut dyn ChargeStorage,
        metrics: &mut SimMetrics,
        faults: Option<&FaultState>,
        recorder: &mut Option<&mut ProfileRecorder>,
    ) -> Result<(), SimError> {
        let recording = recorder.as_deref().is_some_and(ProfileRecorder::active);
        if self.coalescing && !recording {
            self.integrate_coalesced(load, demanded, duration, storage, metrics, faults)?;
            *time += duration;
            return Ok(());
        }
        let residual_floor = self.control_step * RESIDUAL_FLOOR_FRACTION;
        let mut chunk_remaining = duration;
        while chunk_remaining > Seconds::ZERO {
            let mut dt = chunk_remaining.min(self.control_step);
            if chunk_remaining - dt <= residual_floor {
                // Widen the final chunk to absorb the floating-point
                // residual of `chunk_remaining -= dt`.
                dt = chunk_remaining;
            }
            let (i_f, i_fc) = self.integrate_chunk(load, demanded, dt, storage, metrics, faults)?;
            if let Some(rec) = recorder.as_deref_mut() {
                rec.record_chunk(*time, dt, load, i_f, i_fc, storage.soc());
            }
            *time += dt;
            chunk_remaining -= dt;
        }
        Ok(())
    }

    /// Runs `trace` and returns the aggregate metrics: plans the sleep
    /// schedule ([`plan`](Self::plan)), then integrates it
    /// ([`run_schedule`](Self::run_schedule)).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the fuel model rejects a demanded current
    /// (cannot happen with range-respecting models such as the defaults).
    pub fn run(
        &self,
        trace: &Trace,
        sleep: &mut dyn SleepPolicy,
        policy: &mut dyn FcOutputPolicy,
        storage: &mut dyn ChargeStorage,
    ) -> Result<SimResult, SimError> {
        self.run_schedule(&self.plan(trace, sleep), policy, storage)
    }

    /// Runs `trace` while sampling the current profile into `recorder`
    /// (the data behind Figure 7).
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run).
    pub fn run_recorded(
        &self,
        trace: &Trace,
        sleep: &mut dyn SleepPolicy,
        policy: &mut dyn FcOutputPolicy,
        storage: &mut dyn ChargeStorage,
        recorder: &mut ProfileRecorder,
    ) -> Result<SimResult, SimError> {
        self.run_planned(&self.plan(trace, sleep), policy, storage, Some(recorder))
    }

    /// Plans the DPM half of a run: replays `sleep` over `trace` and
    /// lays out each slot's timeline on this simulator's device. The
    /// schedule depends on nothing else — not the FC policy, the storage,
    /// the fuel model or the fault schedule — so one schedule serves
    /// every [`run_schedule`](Self::run_schedule) on the same device,
    /// trace and sleep policy.
    #[must_use]
    pub fn plan(&self, trace: &Trace, sleep: &mut dyn SleepPolicy) -> SlotSchedule {
        let mut schedule = SlotSchedule::default();
        self.plan_into(&mut schedule, trace, sleep);
        schedule
    }

    /// [`plan`](Self::plan) into an existing schedule, reusing its
    /// buffers.
    pub fn plan_into(
        &self,
        schedule: &mut SlotSchedule,
        trace: &Trace,
        sleep: &mut dyn SleepPolicy,
    ) {
        let t_be = self.device.break_even_time();
        schedule.slots.clear();
        schedule.segments.clear();
        schedule.slots.reserve_exact(trace.len());
        for slot in trace.slots() {
            let decision = sleep.decide(t_be);
            let i_active = slot.active_current(self.device.bus_voltage());
            let timeline = SlotTimeline::build_with_directive(
                self.device,
                slot.idle,
                decision.directive,
                slot.active,
                i_active,
            );
            let segments = timeline.segments();
            let idle = segments
                .iter()
                .take_while(|seg| seg.kind.is_idle_phase())
                .count();
            debug_assert!(segments[idle..].iter().all(|seg| !seg.kind.is_idle_phase()));
            let active_start = schedule.segments.len() + idle;
            schedule
                .segments
                .extend(segments.iter().map(|seg| PlannedSegment {
                    duration: seg.duration,
                    load: seg.load,
                }));
            schedule.slots.push(PlannedSlot {
                decision,
                t_idle: slot.idle,
                t_active: slot.active,
                i_active,
                task_latency: timeline.task_latency(),
                slept: timeline.slept(),
                active_start,
                segments_end: schedule.segments.len(),
            });
            sleep.observe_idle(slot.idle);
        }
    }

    /// Integrates a planned sleep schedule under `policy` and `storage`:
    /// the FC half of a run. The schedule must have been planned on a
    /// simulator over the same device. Active faults perturb the
    /// planned predictions here, per run, so a faulted run replays the
    /// fault-free schedule.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run).
    pub fn run_schedule(
        &self,
        schedule: &SlotSchedule,
        policy: &mut dyn FcOutputPolicy,
        storage: &mut dyn ChargeStorage,
    ) -> Result<SimResult, SimError> {
        self.run_planned(schedule, policy, storage, None)
    }

    /// The one slot loop: [`run_schedule`](Self::run_schedule), and
    /// with a recorder attached, [`run_recorded`](Self::run_recorded).
    fn run_planned(
        &self,
        schedule: &SlotSchedule,
        policy: &mut dyn FcOutputPolicy,
        storage: &mut dyn ChargeStorage,
        mut recorder: Option<&mut ProfileRecorder>,
    ) -> Result<SimResult, SimError> {
        let mut metrics = SimMetrics::new();
        let mut time = Seconds::ZERO;
        let mut faults = self.faults.as_ref().map(FaultState::new);

        let mut segments_start = 0;
        for (index, slot) in schedule.slots.iter().enumerate() {
            let segments = &schedule.segments[segments_start..slot.segments_end];
            let idle = slot.active_start - segments_start;
            segments_start = slot.segments_end;
            let mut predicted_idle = slot.decision.predicted_idle;
            if let Some(fs) = faults.as_mut() {
                metrics.faults_applied += fs.advance_to(time);
                policy.observe_conditions(&self.conditions(fs, storage));
                predicted_idle = fs.perturb_prediction(index, predicted_idle);
            }
            policy.begin_slot(&SlotStart {
                index,
                directive: slot.decision.directive,
                predicted_idle,
                soc: storage.soc(),
            });
            if slot.slept {
                metrics.sleeps += 1;
            }
            metrics.task_latency += slot.task_latency;

            // Active-phase totals, known on task arrival.
            let mut active_duration = Seconds::ZERO;
            let mut active_charge = Charge::ZERO;
            for seg in &segments[idle..] {
                active_duration += seg.duration;
                active_charge += seg.load * seg.duration;
            }

            let mut active_started = false;
            let mut si = 0;
            while si < segments.len() {
                let seg = &segments[si];
                let phase = if si < idle {
                    PolicyPhase::Idle
                } else {
                    PolicyPhase::Active
                };
                if phase == PolicyPhase::Active && !active_started {
                    active_started = true;
                    policy.begin_active(&ActiveStart {
                        duration: active_duration,
                        charge: active_charge,
                        soc: storage.soc(),
                    });
                }
                if seg.duration <= Seconds::ZERO {
                    si += 1;
                    continue;
                }

                if let Some(fs) = faults.as_mut() {
                    metrics.faults_applied += fs.advance_to(time);
                    policy.observe_conditions(&self.conditions(fs, storage));
                }

                // Immediately following segments in the same phase at
                // the same load are indistinguishable to the policy, so
                // they merge into one constant-load stretch and the
                // policy plans the whole stretch at once. Skipped while
                // the recorder still wants samples so figure outputs
                // keep their original segment boundaries.
                let record_pending = recorder.as_deref().is_some_and(ProfileRecorder::active);
                let mut duration = seg.duration;
                if !record_pending {
                    while let Some(nxt) = segments.get(si + 1) {
                        if (si + 1 < idle) == (phase == PolicyPhase::Idle) && nxt.load == seg.load {
                            duration += nxt.duration;
                            si += 1;
                        } else {
                            break;
                        }
                    }
                }

                // Integrate the stretch span by span: a span ends at the
                // stretch end or at the next fault boundary, whichever
                // comes first, so no fault edge falls inside a
                // closed-form integration (and the per-chunk path sees
                // the same span edges as the fast path).
                let residual_floor = self.control_step * RESIDUAL_FLOOR_FRACTION;
                let mut remaining = duration;
                let mut first_span = true;
                while remaining > Seconds::ZERO {
                    if !first_span {
                        if let Some(fs) = faults.as_mut() {
                            metrics.faults_applied += fs.advance_to(time);
                            policy.observe_conditions(&self.conditions(fs, storage));
                        }
                    }
                    // The two integration modes accumulate `time` through
                    // different float additions, so a fault boundary can
                    // land a few ulps after one mode's clock and dead-on
                    // the other's. A boundary within the residual floor is
                    // "now": apply it before planning the span instead of
                    // integrating a degenerate sliver in one mode only.
                    if let Some(fs) = faults.as_mut() {
                        while let Some(b) = fs.next_boundary(time) {
                            if b - time > residual_floor {
                                break;
                            }
                            metrics.faults_applied += fs.advance_to(b);
                            policy.observe_conditions(&self.conditions(fs, storage));
                        }
                    }
                    let mut span = match faults.as_ref().and_then(|fs| fs.next_boundary(time)) {
                        Some(b) if b - time < remaining => b - time,
                        _ => remaining,
                    };
                    if remaining - span <= residual_floor {
                        // Widen to absorb a boundary landing within
                        // floating-point residual of the stretch end.
                        span = remaining;
                    }
                    let deficit_before = metrics.deficit_time;
                    self.integrate_span(
                        phase,
                        seg.load,
                        span,
                        &mut time,
                        policy,
                        storage,
                        &mut metrics,
                        faults.as_ref(),
                        &mut recorder,
                    )?;
                    if let Some(fs) = faults.as_ref() {
                        if fs.any_active() {
                            metrics.fault_deficit_time += metrics.deficit_time - deficit_before;
                        }
                        if policy.resilience().is_some_and(|s| s.degraded) {
                            metrics.time_in_fallback += span;
                        }
                    }
                    remaining -= span;
                    first_span = false;
                }
                si += 1;
            }

            policy.end_slot(&SlotEnd {
                t_idle: slot.t_idle,
                t_active: slot.t_active,
                i_active: slot.i_active,
                soc: storage.soc(),
            });
            metrics.slots += 1;
        }

        if let Some(status) = policy.resilience() {
            metrics.degradations = status.degradations;
        }
        metrics.final_soc = storage.soc();
        Ok(SimResult { metrics })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcdpm_core::dpm::PredictiveSleep;
    use fcdpm_core::policy::{AsapDpm, ConvDpm, FcDpm};
    use fcdpm_core::FuelOptimizer;
    use fcdpm_storage::IdealStorage;
    use fcdpm_units::Amps;
    use fcdpm_workload::Scenario;

    fn run_policy(
        scenario: &Scenario,
        policy: &mut dyn FcOutputPolicy,
        capacity: Charge,
    ) -> SimMetrics {
        let sim = HybridSimulator::dac07(&scenario.device);
        let mut storage = IdealStorage::new(capacity, capacity * 0.5);
        let mut sleep = PredictiveSleep::new(scenario.rho);
        sim.run(&scenario.trace, &mut sleep, policy, &mut storage)
            .unwrap()
            .metrics
    }

    fn fcdpm_policy(scenario: &Scenario, capacity: Charge) -> FcDpm {
        FcDpm::new(
            FuelOptimizer::dac07(),
            &scenario.device,
            capacity,
            scenario.sigma,
            scenario.active_current_estimate,
        )
    }

    #[test]
    fn policy_ordering_on_camcorder() {
        // The paper's Table 2 ordering: FC-DPM < ASAP-DPM < Conv-DPM.
        let scenario = Scenario::experiment1();
        let cap = Charge::from_milliamp_minutes(100.0);
        let conv = run_policy(&scenario, &mut ConvDpm::dac07(), cap);
        let asap = run_policy(&scenario, &mut AsapDpm::dac07(cap), cap);
        let mut fc = fcdpm_policy(&scenario, cap);
        let fcdpm = run_policy(&scenario, &mut fc, cap);
        let asap_norm = asap.normalized_fuel(&conv);
        let fc_norm = fcdpm.normalized_fuel(&conv);
        assert!(
            fc_norm < asap_norm && asap_norm < 1.0,
            "ordering violated: fc {fc_norm:.3}, asap {asap_norm:.3}"
        );
        // Band check against Table 2 (30.8 % and 40.8 %).
        assert!((0.25..0.40).contains(&fc_norm), "fc {fc_norm:.3}");
        assert!((0.30..0.55).contains(&asap_norm), "asap {asap_norm:.3}");
    }

    #[test]
    fn conv_fuel_matches_closed_form() {
        let scenario = Scenario::experiment1();
        let cap = Charge::new(1e9); // effectively infinite: no bleed concern
        let conv = run_policy(&scenario, &mut ConvDpm::dac07(), cap);
        let i_fc = LinearEfficiency::dac07()
            .stack_current(Amps::new(1.2))
            .unwrap();
        let expect = i_fc.amps() * conv.duration().seconds();
        assert!(
            (conv.fuel.total().amp_seconds() - expect).abs() < 1e-6,
            "fuel {} vs closed form {}",
            conv.fuel.total().amp_seconds(),
            expect
        );
    }

    #[test]
    fn charge_conservation() {
        // delivered = load + Δsoc + bled − deficit, exactly.
        let scenario = Scenario::experiment1();
        let cap = Charge::from_milliamp_minutes(100.0);
        {
            let policy = &mut ConvDpm::dac07() as &mut dyn FcOutputPolicy;
            let sim = HybridSimulator::dac07(&scenario.device);
            let mut storage = IdealStorage::new(cap, cap * 0.5);
            let initial = storage.soc();
            let mut sleep = PredictiveSleep::new(scenario.rho);
            let m = sim
                .run(&scenario.trace, &mut sleep, policy, &mut storage)
                .unwrap()
                .metrics;
            let lhs = m.delivered_charge.amp_seconds();
            let rhs = m.load_charge.amp_seconds()
                + (m.final_soc - initial).amp_seconds()
                + m.bled_charge.amp_seconds()
                - m.deficit_charge.amp_seconds();
            assert!(
                (lhs - rhs).abs() < 1e-6,
                "conservation violated: {lhs} vs {rhs}"
            );
        }
    }

    #[test]
    fn sleeps_most_slots_on_camcorder() {
        // Idle 8–20 s always exceeds T_be = 1 s; only the cold first slot
        // stays awake.
        let scenario = Scenario::experiment1();
        let cap = Charge::from_milliamp_minutes(100.0);
        let m = run_policy(&scenario, &mut ConvDpm::dac07(), cap);
        assert_eq!(m.sleeps, m.slots - 1);
    }

    #[test]
    fn profile_recording() {
        let scenario = Scenario::experiment1();
        let sim = HybridSimulator::dac07(&scenario.device);
        let mut storage = IdealStorage::dac07_supercap();
        let mut sleep = PredictiveSleep::new(scenario.rho);
        let mut rec = ProfileRecorder::new(Seconds::new(0.5), Seconds::new(300.0));
        let mut policy = ConvDpm::dac07();
        sim.run_recorded(
            &scenario.trace,
            &mut sleep,
            &mut policy,
            &mut storage,
            &mut rec,
        )
        .unwrap();
        // 300 s at 0.5 s sampling → 601 samples.
        assert_eq!(rec.samples().len(), 601);
        assert!(rec.samples().iter().all(|s| s.i_f == Amps::new(1.2)));
    }

    #[test]
    fn no_brownout_with_adequate_storage_fcdpm() {
        let scenario = Scenario::experiment1();
        let cap = Charge::from_milliamp_minutes(100.0);
        let mut fc = fcdpm_policy(&scenario, cap);
        let m = run_policy(&scenario, &mut fc, cap);
        assert!(
            m.brownout_fraction() < 0.01,
            "brownouts: {}",
            m.brownout_fraction()
        );
    }

    #[test]
    fn experiment2_ordering() {
        let scenario = Scenario::experiment2();
        let cap = Charge::from_milliamp_minutes(100.0);
        let conv = run_policy(&scenario, &mut ConvDpm::dac07(), cap);
        let asap = run_policy(&scenario, &mut AsapDpm::dac07(cap), cap);
        let mut fc = fcdpm_policy(&scenario, cap);
        let fcdpm = run_policy(&scenario, &mut fc, cap);
        let asap_norm = asap.normalized_fuel(&conv);
        let fc_norm = fcdpm.normalized_fuel(&conv);
        assert!(
            fc_norm < asap_norm && asap_norm < 1.0,
            "ordering violated: fc {fc_norm:.3}, asap {asap_norm:.3}"
        );
        // Table 3 reports 41.5 % and 49.1 %; our reconstruction lands
        // lower in absolute terms (see EXPERIMENTS.md) but preserves the
        // ordering and the FC-vs-ASAP gap, which these bands pin down.
        assert!((0.22..0.55).contains(&fc_norm), "fc {fc_norm:.3}");
        assert!((0.28..0.65).contains(&asap_norm), "asap {asap_norm:.3}");
    }

    #[test]
    fn lossy_buffer_paths_cost_fuel() {
        // Figure-1 charger/discharger losses: the same FC-DPM policy must
        // burn at least as much fuel when the buffer paths are lossy.
        let scenario = Scenario::experiment1();
        let cap = Charge::from_milliamp_minutes(100.0);
        let run_with = |charger: f64, discharger: f64| {
            let sim = HybridSimulator::dac07(&scenario.device)
                .with_buffer_path_efficiency(charger, discharger)
                .unwrap();
            let mut policy = FcDpm::new(
                FuelOptimizer::dac07(),
                &scenario.device,
                cap,
                scenario.sigma,
                scenario.active_current_estimate,
            );
            let mut storage = IdealStorage::new(cap, cap * 0.5);
            let mut sleep = PredictiveSleep::new(scenario.rho);
            sim.run(&scenario.trace, &mut sleep, &mut policy, &mut storage)
                .unwrap()
                .metrics
        };
        let lossless = run_with(1.0, 1.0);
        let lossy = run_with(0.85, 0.85);
        assert!(
            lossy.fuel.total() >= lossless.fuel.total(),
            "lossy {} < lossless {}",
            lossy.fuel.total(),
            lossless.fuel.total()
        );
    }

    #[test]
    fn buffer_path_efficiency_validated() {
        let scenario = Scenario::experiment1();
        assert!(HybridSimulator::dac07(&scenario.device)
            .with_buffer_path_efficiency(0.0, 1.0)
            .is_err());
        assert!(HybridSimulator::dac07(&scenario.device)
            .with_buffer_path_efficiency(1.0, 1.5)
            .is_err());
        assert!(HybridSimulator::dac07(&scenario.device)
            .with_buffer_path_efficiency(0.9, 0.9)
            .is_ok());
    }

    #[test]
    fn invalid_control_step_rejected() {
        let scenario = Scenario::experiment1();
        let err = HybridSimulator::new(
            &scenario.device,
            Box::new(LinearEfficiency::dac07()),
            CurrentRange::dac07(),
            Seconds::ZERO,
        )
        .unwrap_err();
        assert_eq!(
            err,
            SimError::InvalidConfig {
                name: "control_step"
            }
        );
    }

    #[test]
    fn fast_path_coalesces_steady_policies() {
        // Conv-DPM plans a steady setpoint for every segment, so the
        // whole run integrates without a single per-chunk step.
        let scenario = Scenario::experiment1();
        let cap = Charge::from_milliamp_minutes(100.0);
        let m = run_policy(&scenario, &mut ConvDpm::dac07(), cap);
        assert_eq!(m.chunks_stepped, 0);
        assert!(m.chunks_coalesced > 0);
        assert!(m.policy_consultations > 0);
        // ASAP-DPM plans piecewise (follow-load / recharge phases split
        // at the analytic SoC crossing): still no per-chunk stepping.
        let m = run_policy(&scenario, &mut AsapDpm::dac07(cap), cap);
        assert_eq!(m.chunks_stepped, 0);
        assert!(m.chunks_coalesced > 0);
    }

    #[test]
    fn without_coalescing_reproduces_fast_path_physics() {
        let scenario = Scenario::experiment1();
        let cap = Charge::from_milliamp_minutes(100.0);
        let run_with = |coalescing: bool| {
            let mut sim = HybridSimulator::dac07(&scenario.device);
            if !coalescing {
                sim = sim.without_coalescing();
            }
            let mut policy = ConvDpm::dac07();
            let mut storage = IdealStorage::new(cap, cap * 0.5);
            let mut sleep = PredictiveSleep::new(scenario.rho);
            sim.run(&scenario.trace, &mut sleep, &mut policy, &mut storage)
                .unwrap()
                .metrics
        };
        let fast = run_with(true);
        let slow = run_with(false);
        assert!(slow.chunks_coalesced == 0 && fast.chunks_stepped == 0);
        assert_eq!(fast.slots, slow.slots);
        assert_eq!(fast.sleeps, slow.sleeps);
        assert!(fast.fuel.total().approx_eq(slow.fuel.total(), 1e-6));
        assert!(fast.delivered_charge.approx_eq(slow.delivered_charge, 1e-6));
        assert!(fast.final_soc.approx_eq(slow.final_soc, 1e-6));
        assert!((fast.deficit_time - slow.deficit_time).abs() < Seconds::new(1e-6));
    }

    #[test]
    fn recorder_keeps_per_chunk_resolution_until_horizon() {
        // With the recorder attached, segments inside the horizon still
        // step per chunk (so Figure-7 outputs are unchanged); once the
        // horizon passes, the fast path takes over.
        let scenario = Scenario::experiment1();
        let sim = HybridSimulator::dac07(&scenario.device);
        let mut storage = IdealStorage::dac07_supercap();
        let mut sleep = PredictiveSleep::new(scenario.rho);
        let mut rec = ProfileRecorder::new(Seconds::new(0.5), Seconds::new(300.0));
        let mut policy = ConvDpm::dac07();
        let m = sim
            .run_recorded(
                &scenario.trace,
                &mut sleep,
                &mut policy,
                &mut storage,
                &mut rec,
            )
            .unwrap()
            .metrics;
        assert_eq!(rec.samples().len(), 601);
        assert!(m.chunks_stepped > 0, "horizon segments must step");
        assert!(
            m.chunks_coalesced > 0,
            "post-horizon segments must coalesce"
        );
    }

    #[test]
    fn cross_segment_merge_coalesces_equal_load_neighbors() {
        // Satellite pin for cross-segment coalescing on a sleep-heavy
        // trace. Under an always-sleep DPM policy every camcorder slot
        // plays six segments — PowerDown, Sleep, WakeUp, StartUp, Run,
        // ShutDown — of which the last three share the active load, so a
        // steady policy is consulted exactly four times per slot (the
        // active trio merges into one closed-form stretch).
        use fcdpm_core::dpm::SleepDecision;
        use fcdpm_device::SleepDirective;

        #[derive(Debug)]
        struct AlwaysSleep;
        impl SleepPolicy for AlwaysSleep {
            fn decide(&mut self, _t_be: Seconds) -> SleepDecision {
                SleepDecision {
                    directive: SleepDirective::SleepImmediately,
                    predicted_idle: Some(Seconds::new(10.0)),
                }
            }
            fn observe_idle(&mut self, _actual: Seconds) {}
        }

        let scenario = Scenario::experiment1();
        let sim = HybridSimulator::dac07(&scenario.device);
        let cap = Charge::from_milliamp_minutes(100.0);
        let mut storage = IdealStorage::new(cap, cap * 0.5);
        let mut policy = ConvDpm::dac07();
        let m = sim
            .run(&scenario.trace, &mut AlwaysSleep, &mut policy, &mut storage)
            .unwrap()
            .metrics;
        assert_eq!(m.sleeps, m.slots);
        assert_eq!(m.chunks_stepped, 0);
        assert_eq!(m.policy_consultations as usize, 4 * m.slots);
    }

    #[test]
    fn merged_run_reproduces_per_chunk_physics() {
        // The merge scan must not change the physics, only the work
        // counters: same camcorder run with and without the fast path.
        let scenario = Scenario::experiment1();
        let cap = Charge::from_milliamp_minutes(100.0);
        let run_with = |coalescing: bool| {
            let mut sim = HybridSimulator::dac07(&scenario.device);
            if !coalescing {
                sim = sim.without_coalescing();
            }
            let mut policy = ConvDpm::dac07();
            let mut storage = IdealStorage::new(cap, cap * 0.5);
            let mut sleep = PredictiveSleep::new(scenario.rho);
            sim.run(&scenario.trace, &mut sleep, &mut policy, &mut storage)
                .unwrap()
                .metrics
        };
        let fast = run_with(true);
        let slow = run_with(false);
        // Both modes drive the identical plan sequence — the merge scan
        // and per-stretch `begin_segment` consultations are shared; only
        // the integration inside each plan phase differs.
        assert_eq!(fast.policy_consultations, slow.policy_consultations);
        assert!(slow.chunks_stepped > 0 && fast.chunks_stepped == 0);
        assert!(fast.fuel.total().approx_eq(slow.fuel.total(), 1e-6));
        assert!(fast.final_soc.approx_eq(slow.final_soc, 1e-6));
    }

    #[test]
    fn empty_fault_schedule_is_bit_identical() {
        use fcdpm_faults::FaultSchedule;
        let scenario = Scenario::experiment1();
        let cap = Charge::from_milliamp_minutes(100.0);
        let run_with = |faults: Option<FaultSchedule>| {
            let mut sim = HybridSimulator::dac07(&scenario.device);
            if let Some(schedule) = faults {
                sim = sim.with_faults(schedule);
            }
            let mut policy = fcdpm_policy(&scenario, cap);
            let mut storage = IdealStorage::new(cap, cap * 0.5);
            let mut sleep = PredictiveSleep::new(scenario.rho);
            sim.run(&scenario.trace, &mut sleep, &mut policy, &mut storage)
                .unwrap()
                .metrics
        };
        let bare = run_with(None);
        let empty = run_with(Some(FaultSchedule::none(0xDAC0_2007)));
        // Bit-identical, work counters included: the no-fault code path
        // must execute the exact same float operations.
        assert_eq!(bare, empty);
        assert_eq!(empty.faults_applied, 0);
        assert_eq!(empty.degradations, 0);
        assert_eq!(empty.time_in_fallback, Seconds::ZERO);
        assert_eq!(empty.fault_deficit_time, Seconds::ZERO);
    }

    #[test]
    fn starvation_window_caps_delivery_and_attributes_deficit() {
        use fcdpm_faults::{FaultEvent, FaultKind, FaultSchedule, FuelStarvation};
        let scenario = Scenario::experiment1();
        let cap = Charge::from_milliamp_minutes(100.0);
        let schedule = FaultSchedule {
            seed: 1,
            events: vec![FaultEvent {
                at_s: 50.0,
                kind: FaultKind::FuelStarvation(FuelStarvation {
                    until_s: 1e9,
                    max_a: 0.15,
                }),
            }],
        };
        let run_with = |faults: Option<FaultSchedule>| {
            let mut sim = HybridSimulator::dac07(&scenario.device);
            if let Some(schedule) = faults {
                sim = sim.with_faults(schedule);
            }
            let mut policy = ConvDpm::dac07();
            let mut storage = IdealStorage::new(cap, cap * 0.5);
            let mut sleep = PredictiveSleep::new(scenario.rho);
            sim.run(&scenario.trace, &mut sleep, &mut policy, &mut storage)
                .unwrap()
                .metrics
        };
        let nominal = run_with(None);
        let starved = run_with(Some(schedule));
        assert_eq!(starved.faults_applied, 1);
        assert!(starved.delivered_charge < nominal.delivered_charge);
        // Conv-DPM pinned at 0.15 A cannot carry the active load: the
        // starved run browns out, and the whole deficit is attributed to
        // the fault window.
        assert!(starved.deficit_time > nominal.deficit_time);
        assert!(starved.fault_deficit_time > Seconds::ZERO);
        assert!(starved.fault_deficit_time <= starved.deficit_time + Seconds::new(1e-9));
    }

    #[test]
    fn coalesced_and_per_chunk_paths_agree_under_faults() {
        use fcdpm_faults::{
            EfficiencyFade, FaultEvent, FaultKind, FaultSchedule, FuelStarvation, SelfDischarge,
        };
        let scenario = Scenario::experiment1();
        let cap = Charge::from_milliamp_minutes(100.0);
        let schedule = FaultSchedule {
            seed: 9,
            events: vec![
                FaultEvent {
                    at_s: 40.25, // deliberately off the chunk grid
                    kind: FaultKind::EfficiencyFade(EfficiencyFade {
                        alpha_scale: 0.9,
                        beta_scale: 1.1,
                    }),
                },
                FaultEvent {
                    at_s: 90.0,
                    kind: FaultKind::FuelStarvation(FuelStarvation {
                        until_s: 140.0,
                        max_a: 0.6,
                    }),
                },
                FaultEvent {
                    at_s: 120.0,
                    kind: FaultKind::SelfDischarge(SelfDischarge { leak_a: 0.005 }),
                },
            ],
        };
        let run_with = |coalescing: bool| {
            let mut sim = HybridSimulator::dac07(&scenario.device).with_faults(schedule.clone());
            if !coalescing {
                sim = sim.without_coalescing();
            }
            let mut policy = ConvDpm::dac07();
            let mut storage = IdealStorage::new(cap, cap * 0.5);
            let mut sleep = PredictiveSleep::new(scenario.rho);
            sim.run(&scenario.trace, &mut sleep, &mut policy, &mut storage)
                .unwrap()
                .metrics
        };
        let fast = run_with(true);
        let slow = run_with(false);
        assert_eq!(fast.faults_applied, 3);
        assert_eq!(slow.faults_applied, 3);
        assert!(fast.fuel.total().approx_eq(slow.fuel.total(), 1e-6));
        assert!(fast.delivered_charge.approx_eq(slow.delivered_charge, 1e-6));
        assert!(fast.final_soc.approx_eq(slow.final_soc, 1e-6));
        assert!((fast.deficit_time - slow.deficit_time).abs() < Seconds::new(1e-6));
        assert!((fast.fault_deficit_time - slow.fault_deficit_time).abs() < Seconds::new(1e-6));
    }

    #[test]
    fn storage_faults_drain_and_bleed() {
        use fcdpm_faults::{FaultEvent, FaultKind, FaultSchedule, SelfDischarge, StorageFade};
        let scenario = Scenario::experiment1();
        let cap = Charge::from_milliamp_minutes(100.0);
        let run_with = |events: Vec<FaultEvent>| {
            let sim = HybridSimulator::dac07(&scenario.device)
                .with_faults(FaultSchedule { seed: 2, events });
            let mut policy = ConvDpm::dac07();
            let mut storage = IdealStorage::new(cap, cap * 0.5);
            let mut sleep = PredictiveSleep::new(scenario.rho);
            sim.run(&scenario.trace, &mut sleep, &mut policy, &mut storage)
                .unwrap()
                .metrics
        };
        let nominal = run_with(Vec::new());
        let leaky = run_with(vec![FaultEvent {
            at_s: 0.0,
            kind: FaultKind::SelfDischarge(SelfDischarge { leak_a: 0.02 }),
        }]);
        // A parasitic leak drains charge the nominal run kept (Conv-DPM
        // over-delivers, so the nominal run ends saturated or bled).
        assert!(leaky.final_soc <= nominal.final_soc);
        assert!(leaky.bled_charge < nominal.bled_charge);
        let faded = run_with(vec![FaultEvent {
            at_s: 10.0,
            kind: FaultKind::StorageFade(StorageFade {
                capacity_scale: 0.25,
            }),
        }]);
        // The faded element cannot hold more than a quarter of nominal:
        // the excess is bled and the run ends at the faded rail.
        assert!(faded.final_soc <= cap * 0.25 + Charge::new(1e-9));
        assert!(faded.bled_charge > nominal.bled_charge);
    }

    #[test]
    fn empty_trace_yields_zero_metrics() {
        let scenario = Scenario::experiment1();
        let sim = HybridSimulator::dac07(&scenario.device);
        let mut storage = IdealStorage::dac07_supercap();
        let mut sleep = PredictiveSleep::new(0.5);
        let mut policy = ConvDpm::dac07();
        let m = sim
            .run(&Trace::new(), &mut sleep, &mut policy, &mut storage)
            .unwrap()
            .metrics;
        assert_eq!(m.slots, 0);
        assert!(m.fuel.total().is_zero());
    }

    #[test]
    fn schedule_holds_each_slots_decision_and_timeline() {
        // The plan is the sleep policy's decision sequence and the
        // device's timelines, nothing else; refilling a schedule planned
        // on another trace leaves nothing of it behind.
        let scenario = Scenario::experiment1();
        let sim = HybridSimulator::dac07(&scenario.device);
        let mut schedule = sim.plan(
            &Scenario::experiment2().trace,
            &mut PredictiveSleep::new(0.5),
        );
        sim.plan_into(
            &mut schedule,
            &scenario.trace,
            &mut PredictiveSleep::new(scenario.rho),
        );
        assert_eq!(schedule.len(), scenario.trace.len());
        let t_be = scenario.device.break_even_time();
        let mut sleep = PredictiveSleep::new(scenario.rho);
        let mut start = 0;
        for (planned, slot) in schedule.slots.iter().zip(scenario.trace.slots()) {
            let decision = sleep.decide(t_be);
            assert_eq!(planned.decision, decision);
            let i_active = slot.active_current(scenario.device.bus_voltage());
            let timeline = SlotTimeline::build_with_directive(
                &scenario.device,
                slot.idle,
                decision.directive,
                slot.active,
                i_active,
            );
            let segments: Vec<_> = schedule.segments[start..planned.segments_end]
                .iter()
                .map(|seg| (seg.duration, seg.load))
                .collect();
            let expected: Vec<_> = timeline
                .segments()
                .iter()
                .map(|seg| (seg.duration, seg.load))
                .collect();
            assert_eq!(segments, expected);
            let idle = timeline
                .segments()
                .iter()
                .filter(|seg| seg.kind.is_idle_phase())
                .count();
            assert_eq!(planned.active_start, start + idle);
            assert_eq!(
                (planned.t_idle, planned.t_active, planned.i_active),
                (slot.idle, slot.active, i_active)
            );
            assert_eq!(
                (planned.slept, planned.task_latency),
                (timeline.slept(), timeline.task_latency())
            );
            start = planned.segments_end;
            sleep.observe_idle(slot.idle);
        }
        assert_eq!(start, schedule.segments.len());
        assert!(sim
            .plan(&Trace::new(), &mut PredictiveSleep::new(0.5))
            .is_empty());
    }
}
