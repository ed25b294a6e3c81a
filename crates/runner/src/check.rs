//! Per-value feasibility checks for job specs and grids.
//!
//! The fuel model `I_fc = V_F·I_F/(ζ·(α−β·I_F))` is calibrated only
//! inside the load-following range `I_F ∈ [0.1, 1.2] A`, and only while
//! its denominator stays positive. Some spec values break that silently
//! — a `Constant` setpoint outside the range, a β that makes
//! `α − β·I_F` non-positive, a buffer too small to ride through one
//! sleep transition. Each function here checks one value and returns a
//! message naming what is wrong with it; callers prefix the field.
//!
//! [`Axes::validate`](crate::spec::Axes::validate), behind both grid
//! spellings, runs them on a whole grid at load time, before the first
//! job. [`execute`](crate::execute) runs the policy, predictor and
//! fault-schedule checks on every job, since a job can also arrive
//! without a grid.

use fcdpm_faults::{FaultKind, FaultSchedule};
use fcdpm_fuelcell::LinearEfficiency;
use fcdpm_units::{Amps, Charge, CurrentRange};

use crate::spec::{PolicySpec, PredictorSpec};

/// `Quantized(n)` needs at least two levels; `Constant(x)` must lie in
/// the load-following range.
///
/// # Errors
///
/// Returns a message naming the offending value.
pub fn policy(policy: &PolicySpec) -> Result<(), String> {
    match *policy {
        PolicySpec::Quantized(levels) if levels < 2 => Err(format!(
            "Quantized needs at least 2 output levels, got {levels}"
        )),
        PolicySpec::Constant(amps) => {
            let range = CurrentRange::dac07();
            if amps.is_finite() && range.contains(Amps::new(amps)) {
                Ok(())
            } else {
                Err(format!(
                    "constant setpoint {amps} A is outside the load-following range [{}, {}] A",
                    range.min().amps(),
                    range.max().amps()
                ))
            }
        }
        _ => Ok(()),
    }
}

/// A `Regression` window must hold at least one sample, and an
/// `Exponential` weighting factor ρ must lie in `[0, 1]`.
/// `Exponential(NaN)` passes: it is the sentinel for the scenario's own
/// ρ.
///
/// # Errors
///
/// Returns a message naming the offending value.
pub fn predictor(predictor: &PredictorSpec) -> Result<(), String> {
    match *predictor {
        PredictorSpec::Regression(0) => {
            Err("Regression needs a window of at least 1 sample, got 0".to_owned())
        }
        PredictorSpec::Exponential(rho) if !rho.is_nan() && !(0.0..=1.0).contains(&rho) => Err(
            format!("exponential-average factor ρ = {rho} is outside [0, 1]"),
        ),
        _ => Ok(()),
    }
}

/// β must be finite, non-negative, and keep the Equation 4 denominator
/// `α − β·I_F` positive over the whole load-following range.
///
/// # Errors
///
/// Returns a message naming the offending value.
pub fn beta(beta: f64) -> Result<(), String> {
    if !beta.is_finite() || beta < 0.0 {
        return Err(format!("β = {beta} is not a finite non-negative number"));
    }
    let alpha = LinearEfficiency::dac07().alpha();
    let i_max = CurrentRange::dac07().max().amps();
    if alpha - beta * i_max <= 0.0 {
        return Err(format!(
            "β = {beta} makes the efficiency denominator α − β·I_F non-positive at I_F = {i_max} A (α = {alpha})"
        ));
    }
    Ok(())
}

/// Charger/discharger path efficiency must lie in `(0, 1]`.
///
/// # Errors
///
/// Returns a message naming the offending value.
pub fn path_efficiency(eta: f64) -> Result<(), String> {
    if eta.is_finite() && eta > 0.0 && eta <= 1.0 {
        Ok(())
    } else {
        Err(format!("buffer path efficiency {eta} is outside (0, 1]"))
    }
}

/// The charge the worst device preset draws from storage across one
/// sleep transition (power-down plus wake-up), in mA·min.
fn min_capacity_mamin() -> f64 {
    use fcdpm_device::presets;
    let worst = [
        presets::dvd_camcorder(),
        presets::experiment2_device(),
        presets::wireless_radio(),
        presets::sensor_node(),
    ]
    .iter()
    .map(|d| d.power_down_current() * d.power_down_time() + d.wake_up_current() * d.wake_up_time())
    .fold(Charge::ZERO, Charge::max);
    worst.amp_seconds() * 1000.0 / 60.0
}

/// A storage capacity must be positive and finite, and cover at least
/// one sleep transition of the worst device preset.
///
/// # Errors
///
/// Returns a message naming the offending value.
pub fn capacity(mamin: f64) -> Result<(), String> {
    if !mamin.is_finite() || mamin <= 0.0 {
        return Err(format!(
            "capacity {mamin} mA·min is not positive and finite"
        ));
    }
    let floor = min_capacity_mamin();
    if mamin < floor {
        return Err(format!(
            "capacity {mamin} mA·min cannot buffer one sleep transition (worst preset draws {floor:.1} mA·min)"
        ));
    }
    Ok(())
}

/// A fault schedule must pass [`FaultSchedule::validate`], and no
/// starvation cap may sit below the load-following minimum: that would
/// leave the stack no feasible setpoint, a hard outage rather than a
/// fault.
///
/// # Errors
///
/// Returns a message naming the offending event.
pub fn faults(schedule: &FaultSchedule) -> Result<(), String> {
    schedule
        .validate()
        .map_err(|e| format!("fault schedule: {e}"))?;
    let i_min = CurrentRange::dac07().min().amps();
    for (index, event) in schedule.events.iter().enumerate() {
        if let FaultKind::FuelStarvation(starve) = &event.kind {
            if starve.max_a < i_min {
                return Err(format!(
                    "fault schedule: fault event {index}: starvation cap {} A sits below the load-following minimum {i_min} A",
                    starve.max_a
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predictor_parameters_the_constructors_would_reject_are_caught() {
        assert!(predictor(&PredictorSpec::Regression(0))
            .unwrap_err()
            .contains("at least 1 sample"));
        for rho in [-0.1, 1.5, f64::INFINITY, f64::NEG_INFINITY] {
            let err = predictor(&PredictorSpec::Exponential(rho)).unwrap_err();
            assert!(err.contains("outside [0, 1]"), "{rho}: {err}");
        }
        for ok in [
            PredictorSpec::Regression(1),
            PredictorSpec::Exponential(0.0),
            PredictorSpec::Exponential(1.0),
            PredictorSpec::Exponential(f64::NAN),
            PredictorSpec::LastValue,
            PredictorSpec::LearningTree,
            PredictorSpec::Oracle,
        ] {
            assert_eq!(predictor(&ok), Ok(()), "{ok:?}");
        }
    }

    #[test]
    fn capacity_floor_is_experiment_2s_sleep_transition() {
        // 1.2 A for 1 s down plus 1.2 A for 1 s up = 2.4 A·s = 40 mA·min.
        assert!((min_capacity_mamin() - 40.0).abs() < 1e-9);
        assert!(capacity(40.0).is_ok());
        assert!(capacity(39.9).is_err());
    }
}
