//! Lifetime-to-empty simulation.
//!
//! The paper's headline metric is *operational lifetime*: how long a given
//! fuel supply powers the system. [`HybridSimulator::run_until_depleted`]
//! replays a trace cyclically until the hydrogen tank runs dry and reports
//! the wall-clock lifetime — the direct form of Section 5's "lifetime is
//! inversely proportional to the fuel consumption".

use fcdpm_core::dpm::SleepPolicy;
use fcdpm_core::policy::FcOutputPolicy;
use fcdpm_fuelcell::HydrogenTank;
use fcdpm_storage::ChargeStorage;
use fcdpm_units::{Charge, Seconds};
use fcdpm_workload::Trace;

use crate::{HybridSimulator, SimError, SimMetrics};

/// The outcome of a run-until-depleted simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct LifetimeResult {
    /// Wall-clock time until the tank ran dry.
    pub lifetime: Seconds,
    /// Number of complete trace cycles finished before depletion.
    pub full_cycles: usize,
    /// Fuel consumed (equals the tank capacity unless the cycle cap hit).
    pub fuel_consumed: Charge,
    /// Whether the tank was actually emptied (false if `max_cycles`
    /// elapsed first).
    pub depleted: bool,
    /// Metrics over the whole run, each cycle folded in with
    /// [`SimMetrics::append`].
    pub metrics: SimMetrics,
}

impl HybridSimulator<'_> {
    /// Replays `trace` cyclically until `tank` is empty (or `max_cycles`
    /// trace repetitions have run), carrying the policy, predictor and
    /// storage state across cycles.
    ///
    /// The depletion instant inside the final cycle is interpolated at
    /// that cycle's mean fuel rate; with the paper's multi-minute traces
    /// the interpolation error is far below one cycle.
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] from the per-cycle runs.
    ///
    /// # Panics
    ///
    /// Panics if `max_cycles` is zero or `trace` is empty.
    pub fn run_until_depleted(
        &self,
        trace: &Trace,
        sleep: &mut dyn SleepPolicy,
        policy: &mut dyn FcOutputPolicy,
        storage: &mut dyn ChargeStorage,
        tank: &HydrogenTank,
        max_cycles: usize,
    ) -> Result<LifetimeResult, SimError> {
        assert!(max_cycles >= 1, "need at least one cycle");
        assert!(!trace.is_empty(), "trace must contain slots");

        let mut total = SimMetrics::new();
        let mut full_cycles = 0usize;
        for _ in 0..max_cycles {
            let before = total.fuel.total();
            let cycle = self.run(trace, sleep, policy, storage)?.metrics;
            total.append(&cycle);
            if total.fuel.total() >= tank.capacity() {
                // Interpolate the depletion instant within this cycle.
                let cycle_fuel = total.fuel.total() - before;
                let overshoot = total.fuel.total() - tank.capacity();
                let fraction = if cycle_fuel.is_zero() {
                    0.0
                } else {
                    1.0 - overshoot / cycle_fuel
                };
                let lifetime =
                    total.duration() - cycle.duration() * (1.0 - fraction.clamp(0.0, 1.0));
                return Ok(LifetimeResult {
                    lifetime,
                    full_cycles,
                    fuel_consumed: tank.capacity(),
                    depleted: true,
                    metrics: total,
                });
            }
            full_cycles += 1;
        }
        Ok(LifetimeResult {
            lifetime: total.duration(),
            full_cycles,
            fuel_consumed: total.fuel.total(),
            depleted: false,
            metrics: total,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcdpm_core::dpm::PredictiveSleep;
    use fcdpm_core::policy::{ConvDpm, FcDpm};
    use fcdpm_core::FuelOptimizer;
    use fcdpm_storage::IdealStorage;
    use fcdpm_units::Amps;
    use fcdpm_workload::Scenario;

    fn lifetime_of(policy: &mut dyn FcOutputPolicy, tank: &HydrogenTank) -> LifetimeResult {
        let scenario = Scenario::experiment1();
        let cap = Charge::from_milliamp_minutes(100.0);
        let sim = HybridSimulator::dac07(&scenario.device);
        let mut storage = IdealStorage::new(cap, cap * 0.5);
        let mut sleep = PredictiveSleep::new(scenario.rho);
        sim.run_until_depleted(&scenario.trace, &mut sleep, policy, &mut storage, tank, 100)
            .expect("simulation succeeds")
    }

    #[test]
    fn fcdpm_outlives_conv() {
        let tank = HydrogenTank::from_stack_charge(Charge::new(5000.0));
        let conv = lifetime_of(&mut ConvDpm::dac07(), &tank);
        let scenario = Scenario::experiment1();
        let mut fc = FcDpm::new(
            FuelOptimizer::dac07(),
            &scenario.device,
            Charge::from_milliamp_minutes(100.0),
            scenario.sigma,
            scenario.active_current_estimate,
        );
        let fcdpm = lifetime_of(&mut fc, &tank);
        assert!(conv.depleted && fcdpm.depleted);
        let extension = fcdpm.lifetime / conv.lifetime;
        // Table 2: ≈ 1/0.31 ≈ 3.2×.
        assert!(
            (2.5..4.0).contains(&extension),
            "lifetime extension {extension:.2}"
        );
    }

    #[test]
    fn lifetime_matches_rate_prediction() {
        let tank = HydrogenTank::from_stack_charge(Charge::new(5000.0));
        let res = lifetime_of(&mut ConvDpm::dac07(), &tank);
        // Conv runs at a constant stack current, so lifetime = tank / rate
        // exactly (up to the final-cycle interpolation).
        let rate = Amps::new(1.3061);
        let predicted = tank.lifetime_at(rate);
        let err = (res.lifetime / predicted - 1.0).abs();
        assert!(err < 0.01, "lifetime off by {err:.4}");
        assert_eq!(res.fuel_consumed, tank.capacity());
    }

    #[test]
    fn cycle_cap_reports_not_depleted() {
        let tank = HydrogenTank::from_stack_charge(Charge::new(1e9));
        let scenario = Scenario::experiment1();
        let cap = Charge::from_milliamp_minutes(100.0);
        let sim = HybridSimulator::dac07(&scenario.device);
        let mut storage = IdealStorage::new(cap, cap * 0.5);
        let mut sleep = PredictiveSleep::new(scenario.rho);
        let mut policy = ConvDpm::dac07();
        let res = sim
            .run_until_depleted(
                &scenario.trace,
                &mut sleep,
                &mut policy,
                &mut storage,
                &tank,
                3,
            )
            .expect("simulation succeeds");
        assert!(!res.depleted);
        assert_eq!(res.full_cycles, 3);
        assert_eq!(res.metrics.slots, scenario.trace.len() * 3);
    }

    #[test]
    fn faulted_lifetime_carries_the_fault_counters() {
        use crate::fixture::{reference_storage, ReferencePolicy};
        use fcdpm_core::policy::ResilientPolicy;
        use fcdpm_faults::{FaultEvent, FaultKind, FaultSchedule, FuelStarvation};
        use fcdpm_units::CurrentRange;
        let scenario = Scenario::experiment1();
        // A starvation window in every cycle (times are per run).
        let sim = HybridSimulator::dac07(&scenario.device).with_faults(FaultSchedule {
            seed: 1,
            events: vec![FaultEvent {
                at_s: 50.0,
                kind: FaultKind::FuelStarvation(FuelStarvation {
                    until_s: 400.0,
                    max_a: 0.15,
                }),
            }],
        });
        // A fresh storage, sleep and resilient FC-DPM per replay.
        let fresh = || {
            (
                reference_storage(),
                PredictiveSleep::new(scenario.rho),
                ResilientPolicy::new(
                    ReferencePolicy::FcDpm.build(&scenario),
                    CurrentRange::dac07(),
                ),
            )
        };
        let tank = HydrogenTank::from_stack_charge(Charge::new(1e9));
        let (mut storage, mut sleep, mut policy) = fresh();
        let res = sim
            .run_until_depleted(
                &scenario.trace,
                &mut sleep,
                &mut policy,
                &mut storage,
                &tank,
                3,
            )
            .expect("simulation succeeds");
        // The same three cycles, replayed one run at a time.
        let (mut storage, mut sleep, mut policy) = fresh();
        let cycles: Vec<SimMetrics> = (0..3)
            .map(|_| {
                sim.run(&scenario.trace, &mut sleep, &mut policy, &mut storage)
                    .expect("simulation succeeds")
                    .metrics
            })
            .collect();
        let last = &cycles[2];
        assert!(last.faults_applied > 0 && last.degradations > 0);
        assert!(last.time_in_fallback > Seconds::ZERO);
        let m = &res.metrics;
        assert_eq!(
            m.faults_applied,
            cycles.iter().map(|c| c.faults_applied).sum::<u64>()
        );
        let sum =
            |f: fn(&SimMetrics) -> Seconds| cycles.iter().fold(Seconds::ZERO, |acc, c| acc + f(c));
        assert_eq!(m.time_in_fallback, sum(|c| c.time_in_fallback));
        assert_eq!(m.fault_deficit_time, sum(|c| c.fault_deficit_time));
        // A snapshot of the carried policy's cumulative count.
        assert_eq!(m.degradations, last.degradations);
        assert_eq!(m.final_soc, last.final_soc);
    }

    #[test]
    fn tiny_tank_depletes_mid_first_cycle() {
        let tank = HydrogenTank::from_stack_charge(Charge::new(10.0));
        let res = lifetime_of(&mut ConvDpm::dac07(), &tank);
        assert!(res.depleted);
        assert_eq!(res.full_cycles, 0);
        // 10 A·s at 1.3061 A ≈ 7.66 s.
        assert!((res.lifetime.seconds() - 10.0 / 1.3061).abs() < 1.0);
    }
}
