//! The DAC'07 constants the workspace hard-codes, each asserted once
//! through the constructor that carries it.
//!
//! Table 2's 30.8 % depends on every one of these values, and
//! `tests/paper_numbers.rs` pins only the outputs they drive, so a
//! drifted constant fails here first and by name. Where a value has no
//! accessor, the behaviour it drives is pinned instead.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    reason = "binaries and tests may panic"
)]

use fcdpm::dvs::DvsDevice;
use fcdpm::prelude::*;
use fcdpm::sim::fixture::REFERENCE_CAPACITY_MAMIN;
use serde::Serialize as _;

/// Equation 4: `η_s(I_F) = α − β·I_F` with α = 0.45, β = 0.13 at
/// V_F = 12 V, so `V_F/ζ = 0.32`.
#[test]
fn linear_efficiency_is_equation_4() {
    let eff = LinearEfficiency::dac07();
    assert_eq!(eff.alpha(), 0.45);
    assert_eq!(eff.beta(), 0.13);
    assert_eq!(eff.bus_voltage(), Volts::new(12.0));
}

/// ζ ≈ 37.5 V for the 20-cell BCS stack (the cell count has no
/// accessor, so the whole value is compared).
#[test]
fn gibbs_coefficient_is_the_bcs_stack() {
    let bcs = GibbsCoefficient::new(37.5, 20).expect("valid");
    assert_eq!(GibbsCoefficient::dac07(), bcs);
}

/// The BCS 20 W system follows loads in `[0.1 A, 1.2 A]`.
#[test]
fn load_following_range_is_the_bcs_system() {
    let range = CurrentRange::dac07();
    assert_eq!(range.min(), Amps::new(0.1));
    assert_eq!(range.max(), Amps::new(1.2));
}

/// `count` exact `(I, V)` samples of the BCS curve, 0.2 A apart from 0.1 A.
fn bcs_samples(count: usize) -> Vec<(Amps, Volts)> {
    let curve = PolarizationCurve::bcs_20w();
    (0..count)
        .map(|k| {
            let i = Amps::new(0.1 + 0.2 * k as f64);
            (i, curve.voltage(i))
        })
        .collect()
}

/// The polarization fit needs six samples (five free parameters plus
/// one) and holds the exchange-current scale `i0` at 10 mA.
#[test]
fn polarization_fit_needs_six_samples_and_pins_i0() {
    assert!(PolarizationCurve::fit_iv(&bcs_samples(5), 20).is_err());
    let fit = PolarizationCurve::fit_iv(&bcs_samples(6), 20).expect("six samples fit");
    let i0 = fit
        .curve
        .to_value()
        .get("i0")
        .and_then(serde::Value::as_f64);
    assert_eq!(i0, Some(0.01));
}

/// Experiment 1's DVD camcorder (Figure 6).
#[test]
fn camcorder_is_figure_6() {
    let spec = presets::dvd_camcorder();
    assert_eq!(spec.mode_power(PowerMode::Run), Watts::new(14.65));
    assert_eq!(spec.mode_power(PowerMode::Standby), Watts::new(4.84));
    assert_eq!(spec.mode_power(PowerMode::Sleep), Watts::new(2.4));
    assert_eq!(spec.power_down_time(), Seconds::new(0.5));
    assert_eq!(spec.wake_up_time(), Seconds::new(0.5));
    let transition = Watts::new(4.8) / spec.bus_voltage();
    assert_eq!(spec.power_down_current(), transition);
    assert_eq!(spec.wake_up_current(), transition);
    assert_eq!(spec.start_up_time(), Seconds::new(1.5));
    assert_eq!(spec.shut_down_time(), Seconds::new(0.5));
}

/// Experiment 2's synthetic device (Section 5.2): the mean of
/// U[12 W, 16 W] as run power, 1 s SLEEP transitions at 1.2 A, a stated
/// 10 s break-even time and no STANDBY ↔ RUN transitions.
#[test]
fn experiment2_device_is_section_5_2() {
    let spec = presets::experiment2_device();
    assert_eq!(spec.mode_power(PowerMode::Run), Watts::new(14.0));
    assert_eq!(spec.power_down_time(), Seconds::new(1.0));
    assert_eq!(spec.wake_up_time(), Seconds::new(1.0));
    let transition = Watts::new(14.4) / spec.bus_voltage();
    assert_eq!(spec.power_down_current(), transition);
    assert_eq!(spec.wake_up_current(), transition);
    assert_eq!(spec.break_even_time(), Seconds::new(10.0));
    assert_eq!(spec.start_up_time(), Seconds::ZERO);
}

/// The DVS companion device: `P(s) = 2 W + 10 W·s³` over five speed
/// levels, 1.5 W idle, on the 12 V bus.
#[test]
fn dvs_device_is_the_cubic_example() {
    let device = DvsDevice::quadratic_example();
    let speeds: Vec<f64> = device.levels().iter().map(|l| l.speed).collect();
    assert_eq!(speeds, [0.2, 0.4, 0.6, 0.8, 1.0]);
    for level in device.levels() {
        assert_eq!(level.power, Watts::new(2.0 + 10.0 * level.speed.powi(3)));
    }
    assert_eq!(device.idle_power(), Watts::new(1.5));
    assert_eq!(device.bus_voltage(), Volts::new(12.0));
}

/// The reference buffer holds 100 mA·min.
#[test]
fn reference_capacity_is_100_mamin() {
    assert_eq!(REFERENCE_CAPACITY_MAMIN, 100.0);
}
