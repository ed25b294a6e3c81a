//! FC-DPM: the paper's fuel-efficient policy (Section 4, Figure 5).

use fcdpm_device::{DeviceSpec, SleepDirective};
use fcdpm_predict::{ExponentialAverage, MeanEstimator, OraclePredictor, Predictor};
use fcdpm_units::{Amps, Charge, Seconds};

use crate::optimizer::{FuelOptimizer, SlotProfile, StorageContext};

use super::{ActiveStart, FcOutputPolicy, PolicyPhase, SegmentPlan, SlotEnd, SlotStart};

/// The paper's fuel-efficient DPM policy.
///
/// At each idle-period start the policy plans the fuel-optimal constant FC
/// current for the idle phase from the *predicted* idle length (supplied
/// by the DPM layer, Equation 14), the *predicted* active length
/// (Equation 15) and the *estimated* active current (the running mean of
/// past active periods, Section 4.2). When the task actually arrives, the
/// active-phase current is re-planned from the now-known demand
/// (Section 4.2: "after the system resumes to the active state, we
/// re-calculate the FC system output according to the actual value of
/// `T_a` and `I_ld,a`").
///
/// While any predictor is still cold the policy falls back to pure load
/// following for that slot — it has no basis for averaging yet.
///
/// The paper maintains `C_end = C_ini(1)` for system stability
/// (Section 3.3.1); the policy latches the storage state it sees on the
/// first slot as that reference.
#[derive(Debug)]
pub struct FcDpm {
    optimizer: FuelOptimizer,
    // Device constants needed for planning.
    i_standby: Amps,
    i_sleep: Amps,
    tau_pd: Seconds,
    i_pd: Amps,
    tau_wu: Seconds,
    i_wu: Amps,
    tau_su: Seconds,
    tau_sd: Seconds,
    // Storage parameters.
    c_max: Charge,
    c_end_target: Option<Charge>,
    // Predictors. The idle prediction arrives from the DPM layer when it
    // has one (the paper shares one Equation-14 predictor between the
    // sleep decision and the FC planning); `idle_backup` covers DPM
    // layers that don't predict (timeout, always/never), and an oracle
    // overrides both for the clairvoyant ablation.
    active_predictor: Box<dyn Predictor + Send>,
    idle_backup: ExponentialAverage,
    idle_oracle: Option<OraclePredictor>,
    current_estimator: MeanEstimator,
    // Per-slot plan.
    i_f_idle: Amps,
    i_f_active: Amps,
    fallback: bool,
}

impl FcDpm {
    /// Creates the policy.
    ///
    /// * `optimizer` — the Section-3 optimizer (efficiency model + range);
    /// * `device` — the device whose transitions the planner accounts for;
    /// * `c_max` — the storage element's capacity;
    /// * `sigma` — the active-period prediction factor (Equation 15);
    /// * `active_current_prior` — the a-priori `I'_ld,a` used before any
    ///   active period has been observed (Experiment 2 uses 1.2 A).
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is not in `[0, 1]` or `c_max` is negative.
    #[must_use]
    #[track_caller]
    pub fn new(
        optimizer: FuelOptimizer,
        device: &DeviceSpec,
        c_max: Charge,
        sigma: f64,
        active_current_prior: Option<Amps>,
    ) -> Self {
        assert!(!c_max.is_negative(), "capacity must be non-negative");
        let current_estimator = match active_current_prior {
            Some(prior) => MeanEstimator::with_prior(prior),
            None => MeanEstimator::new(),
        };
        Self {
            i_standby: device.mode_current(fcdpm_device::PowerMode::Standby),
            i_sleep: device.mode_current(fcdpm_device::PowerMode::Sleep),
            tau_pd: device.power_down_time(),
            i_pd: device.power_down_current(),
            tau_wu: device.wake_up_time(),
            i_wu: device.wake_up_current(),
            tau_su: device.start_up_time(),
            tau_sd: device.shut_down_time(),
            c_max,
            c_end_target: None,
            active_predictor: Box::new(ExponentialAverage::new(sigma)),
            idle_backup: ExponentialAverage::new(sigma),
            idle_oracle: None,
            current_estimator,
            optimizer,
            i_f_idle: Amps::ZERO,
            i_f_active: Amps::ZERO,
            fallback: true,
        }
    }

    /// Builds the clairvoyant variant: idle lengths, active lengths and
    /// active currents are all known exactly. Used as the
    /// misprediction-free upper bound in ablation studies.
    ///
    /// `slots` yields `(idle, active, active_current)` triples in trace
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `c_max` is negative.
    #[must_use]
    pub fn oracle<I>(optimizer: FuelOptimizer, device: &DeviceSpec, c_max: Charge, slots: I) -> Self
    where
        I: IntoIterator<Item = (Seconds, Seconds, Amps)>,
    {
        let mut idles = Vec::new();
        let mut actives = Vec::new();
        let mut currents = Vec::new();
        for (i, a, c) in slots {
            idles.push(i);
            actives.push(a);
            currents.push(c);
        }
        // The current oracle is emulated by a mean estimator that is
        // re-primed before every slot; simplest faithful equivalent: use
        // the per-slot current as the prior via the active oracle below.
        let mut this = Self::new(optimizer, device, c_max, 0.5, None);
        this.active_predictor = Box::new(OraclePredictor::new(actives));
        this.idle_oracle = Some(OraclePredictor::new(idles));
        // Prime the estimator with the exact mean; per-slot exactness of
        // the current matters far less than the period lengths.
        if !currents.is_empty() {
            let mean = currents.iter().map(|c| c.amps()).sum::<f64>() / currents.len() as f64;
            this.current_estimator = MeanEstimator::with_prior(Amps::new(mean));
        }
        this
    }

    /// The storage reference level `C_ini(1)` the policy restores each
    /// slot (None before the first slot).
    #[must_use]
    pub fn c_end_target(&self) -> Option<Charge> {
        self.c_end_target
    }

    /// Whether the last planned slot fell back to load following.
    #[must_use]
    pub fn in_fallback(&self) -> bool {
        self.fallback
    }

    /// Mean idle-phase load current for a predicted idle of `t_i` under
    /// the DPM layer's directive (a timeout directive spends its prefix in
    /// STANDBY before the power-down).
    fn mean_idle_current(&self, t_i: Seconds, directive: SleepDirective) -> Amps {
        let standby_prefix = match directive {
            SleepDirective::Standby => return self.i_standby,
            SleepDirective::SleepImmediately => Seconds::ZERO,
            SleepDirective::SleepAfter(timeout) => {
                if t_i <= timeout {
                    return self.i_standby;
                }
                timeout
            }
        };
        let after_prefix = (t_i - standby_prefix).max_zero();
        if after_prefix <= self.tau_pd || t_i.is_zero() {
            // The power-down dominates whatever idle remains.
            let charge =
                self.i_standby * standby_prefix + self.i_pd * after_prefix.max(self.tau_pd);
            return charge / t_i.max(standby_prefix + self.tau_pd);
        }
        let charge = self.i_standby * standby_prefix
            + self.i_pd * self.tau_pd
            + self.i_sleep * (after_prefix - self.tau_pd);
        charge / t_i
    }

    fn plan_idle(&mut self, start: &SlotStart) {
        let predicted_idle = match &self.idle_oracle {
            Some(oracle) => oracle.predict(),
            None => start.predicted_idle.or_else(|| self.idle_backup.predict()),
        };
        let (Some(t_i), Some(t_a), Some(i_a)) = (
            predicted_idle,
            self.active_predictor.predict(),
            self.current_estimator.estimate(),
        ) else {
            self.fallback = true;
            return;
        };
        if t_i.is_zero() {
            self.fallback = true;
            return;
        }
        self.fallback = false;
        let c_end_target = *self.c_end_target.get_or_insert(start.soc);

        // Will the sleep excursion actually happen for the predicted idle?
        let sleeps = match start.directive {
            SleepDirective::Standby => false,
            SleepDirective::SleepImmediately => true,
            SleepDirective::SleepAfter(timeout) => t_i > timeout,
        };

        // Fold the deterministic transitions into the two uniform periods
        // exactly as Section 3.3.2 does: wake-up/start-up/shut-down extend
        // the active period; power-down sits inside the idle period.
        let i_idle = self.mean_idle_current(t_i, start.directive);
        let wu = if sleeps { self.tau_wu } else { Seconds::ZERO };
        let t_a_eff = t_a + self.tau_su + self.tau_sd + wu;
        let mut d_active = i_a * (t_a + self.tau_su + self.tau_sd);
        if sleeps {
            d_active += self.i_wu * self.tau_wu;
        }
        let i_active_eff = if t_a_eff.is_zero() {
            Amps::ZERO
        } else {
            d_active / t_a_eff
        };

        let profile = match SlotProfile::new(t_i, i_idle, t_a_eff, i_active_eff) {
            Ok(p) => p,
            Err(_) => {
                self.fallback = true;
                return;
            }
        };
        let storage = StorageContext::new(
            start.soc.clamp(Charge::ZERO, self.c_max),
            c_end_target.clamp(Charge::ZERO, self.c_max),
            self.c_max,
        );
        match self.optimizer.plan_slot(&profile, &storage, None) {
            Ok(plan) => {
                self.i_f_idle = plan.i_f_idle;
                self.i_f_active = plan.i_f_active;
            }
            Err(_) => self.fallback = true,
        }
    }
}

impl FcOutputPolicy for FcDpm {
    fn name(&self) -> &str {
        "FC-DPM"
    }

    fn begin_slot(&mut self, start: &SlotStart) {
        self.plan_idle(start);
    }

    fn begin_active(&mut self, start: &ActiveStart) {
        if self.fallback || start.duration.is_zero() {
            return;
        }
        let c_end_target = self.c_end_target.unwrap_or(start.soc);
        // Re-plan the active current from the actual demand (Section 4.2),
        // honoring both the balance and the capacity ceiling.
        let exact = (start.charge + c_end_target - start.soc) / start.duration;
        let mut i_f = Amps::new(exact.amps().max(0.0));
        // Don't overfill: cap so the end-of-slot state stays ≤ C_max.
        let ceiling = (start.charge + self.c_max - start.soc) / start.duration;
        i_f = i_f.min(Amps::new(ceiling.amps().max(0.0)));
        self.i_f_active = self.optimizer.range().clamp(i_f);
    }

    fn begin_segment(
        &mut self,
        phase: PolicyPhase,
        load: Amps,
        _soc: Charge,
        _remaining: Seconds,
    ) -> SegmentPlan {
        // The plan is fixed per phase at `begin_slot`/`begin_active`, and
        // the fallback follows the (segment-constant) load; neither
        // consults the mid-segment state of charge, so every segment is
        // steady.
        SegmentPlan::Steady(if self.fallback {
            self.optimizer.range().clamp(load)
        } else {
            match phase {
                PolicyPhase::Idle => self.i_f_idle,
                PolicyPhase::Active => self.i_f_active,
            }
        })
    }

    fn end_slot(&mut self, end: &SlotEnd) {
        self.active_predictor.observe(end.t_active);
        self.idle_backup.observe(end.t_idle);
        self.current_estimator.observe(end.i_active);
        if let Some(oracle) = &mut self.idle_oracle {
            oracle.observe(end.t_idle);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcdpm_device::presets;

    fn camcorder_policy() -> FcDpm {
        let device = presets::dvd_camcorder();
        let prior = device.mode_current(fcdpm_device::PowerMode::Run);
        FcDpm::new(
            FuelOptimizer::dac07(),
            &device,
            Charge::new(200.0),
            0.5,
            Some(prior),
        )
    }

    /// The planned setpoint for a segment at `load` and `soc`.
    fn current(p: &mut FcDpm, phase: PolicyPhase, load: f64, soc: Charge) -> Amps {
        p.begin_segment(phase, Amps::new(load), soc, Seconds::new(1.0))
            .current()
    }

    fn warm_up(policy: &mut FcDpm) {
        // One observed slot warms the active predictor; the idle
        // prediction arrives via SlotStart.
        policy.end_slot(&SlotEnd {
            t_idle: Seconds::new(14.0),
            t_active: Seconds::new(3.03),
            i_active: Amps::new(14.65 / 12.0),
            soc: Charge::new(100.0),
        });
    }

    #[test]
    fn cold_start_falls_back_to_load_following() {
        let mut p = camcorder_policy();
        p.begin_slot(&SlotStart {
            index: 0,
            directive: SleepDirective::Standby,
            predicted_idle: None,
            soc: Charge::new(100.0),
        });
        assert!(p.in_fallback());
        let i = current(&mut p, PolicyPhase::Idle, 0.4, Charge::new(100.0));
        assert_eq!(i, Amps::new(0.4));
        let i = current(&mut p, PolicyPhase::Active, 1.3, Charge::new(100.0));
        assert_eq!(i, Amps::new(1.2)); // clamped to range
    }

    #[test]
    fn warm_policy_averages_across_the_slot() {
        let mut p = camcorder_policy();
        warm_up(&mut p);
        p.begin_slot(&SlotStart {
            index: 1,
            directive: SleepDirective::SleepImmediately,
            predicted_idle: Some(Seconds::new(14.0)),
            soc: Charge::new(100.0),
        });
        assert!(!p.in_fallback());
        let i_idle = current(&mut p, PolicyPhase::Idle, 0.2, Charge::new(100.0));
        // The averaged current must sit strictly between the sleep current
        // and the run current.
        assert!(i_idle > Amps::new(0.2), "got {i_idle}");
        assert!(i_idle < Amps::new(1.2208), "got {i_idle}");
        // Constant across idle segments regardless of instantaneous load.
        let again = current(&mut p, PolicyPhase::Idle, 0.4, Charge::new(99.0));
        assert_eq!(i_idle, again);
    }

    #[test]
    fn active_replan_restores_reference_level() {
        let mut p = camcorder_policy();
        warm_up(&mut p);
        let c_ref = Charge::new(100.0);
        p.begin_slot(&SlotStart {
            index: 1,
            directive: SleepDirective::SleepImmediately,
            predicted_idle: Some(Seconds::new(14.0)),
            soc: c_ref,
        });
        assert_eq!(p.c_end_target(), Some(c_ref));
        // Suppose the idle phase over-charged the store by 4 A·s; the
        // active plan must drain exactly back to the reference.
        let soc_now = Charge::new(104.0);
        let duration = Seconds::new(5.53); // wu + su + run + sd
        let charge =
            Amps::new(14.65 / 12.0) * Seconds::new(5.03) + Amps::new(0.4) * Seconds::new(0.5);
        p.begin_active(&ActiveStart {
            duration,
            charge,
            soc: soc_now,
        });
        let i_a = current(&mut p, PolicyPhase::Active, 1.22, soc_now);
        let expected = (charge + c_ref - soc_now) / duration;
        assert!((i_a.amps() - expected.amps()).abs() < 1e-9);
        // End state: soc_now + i_a·duration − charge = c_ref.
        let c_end = soc_now + i_a * duration - charge;
        assert!(c_end.approx_eq(c_ref, 1e-9));
    }

    #[test]
    fn active_replan_clamps_to_range() {
        let mut p = camcorder_policy();
        warm_up(&mut p);
        p.begin_slot(&SlotStart {
            index: 1,
            directive: SleepDirective::Standby,
            predicted_idle: Some(Seconds::new(14.0)),
            soc: Charge::new(100.0),
        });
        // Store massively depleted: the exact refill current would exceed
        // the range; it must clamp at 1.2 A.
        p.begin_active(&ActiveStart {
            duration: Seconds::new(5.0),
            charge: Charge::new(6.0),
            soc: Charge::new(10.0),
        });
        let i_a = current(&mut p, PolicyPhase::Active, 1.2, Charge::new(10.0));
        assert_eq!(i_a, Amps::new(1.2));
    }

    #[test]
    fn oracle_variant_plans_without_hints() {
        let device = presets::dvd_camcorder();
        let slots = vec![
            (Seconds::new(12.0), Seconds::new(3.03), Amps::new(1.22)),
            (Seconds::new(18.0), Seconds::new(3.03), Amps::new(1.22)),
        ];
        let mut p = FcDpm::oracle(FuelOptimizer::dac07(), &device, Charge::new(200.0), slots);
        p.begin_slot(&SlotStart {
            index: 0,
            directive: SleepDirective::SleepImmediately,
            predicted_idle: None, // oracle ignores the hint
            soc: Charge::new(100.0),
        });
        assert!(!p.in_fallback());
    }

    #[test]
    fn fallback_when_predicted_idle_zero() {
        let mut p = camcorder_policy();
        warm_up(&mut p);
        p.begin_slot(&SlotStart {
            index: 1,
            directive: SleepDirective::Standby,
            predicted_idle: Some(Seconds::ZERO),
            soc: Charge::new(100.0),
        });
        assert!(p.in_fallback());
    }

    #[test]
    fn mean_idle_current_blends_power_down() {
        let p = camcorder_policy();
        // Standby: just the standby current.
        let standby = p.mean_idle_current(Seconds::new(10.0), SleepDirective::Standby);
        assert!((standby.amps() - 4.84 / 12.0).abs() < 1e-12);
        // Sleeping 10 s: 0.5 s at 0.4 A + 9.5 s at 0.2 A, averaged.
        let asleep = p.mean_idle_current(Seconds::new(10.0), SleepDirective::SleepImmediately);
        let expect = (0.4 * 0.5 + 0.2 * 9.5) / 10.0;
        assert!((asleep.amps() - expect).abs() < 1e-12);
        // Degenerate short idle: the power-down current dominates.
        let tiny = p.mean_idle_current(Seconds::new(0.3), SleepDirective::SleepImmediately);
        assert!((tiny.amps() - 0.4).abs() < 1e-12);
    }
}
