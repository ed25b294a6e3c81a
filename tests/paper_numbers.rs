//! Integration tests pinning the reproduction to the paper's published
//! numbers (see EXPERIMENTS.md for the paper-vs-measured discussion).

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    reason = "binaries and tests may panic"
)]

use fcdpm::prelude::*;
use fcdpm::units::CurrentRange;

fn run(scenario: &Scenario, policy: &mut dyn FcOutputPolicy, capacity: Charge) -> SimMetrics {
    let sim = HybridSimulator::dac07(&scenario.device);
    let mut storage = IdealStorage::new(capacity, capacity * 0.5);
    let mut sleep = PredictiveSleep::new(scenario.rho);
    sim.run(&scenario.trace, &mut sleep, policy, &mut storage)
        .expect("simulation succeeds")
        .metrics
}

fn fc_policy(scenario: &Scenario, capacity: Charge) -> FcDpm {
    FcDpm::new(
        FuelOptimizer::dac07(),
        &scenario.device,
        capacity,
        scenario.sigma,
        scenario.active_current_estimate,
    )
}

/// Section 2.3 / Equation 4: `I_fc = 0.32 I_F / (0.45 − 0.13 I_F)`.
#[test]
fn equation_4_constants() {
    let eff = LinearEfficiency::dac07();
    for (i_f, expect) in [(0.2, 0.1509), (0.5333, 0.4483), (1.2, 1.3061)] {
        let i_fc = eff.stack_current(Amps::new(i_f)).expect("in domain");
        assert!(
            (i_fc.amps() - expect).abs() < 1e-3,
            "I_fc({i_f}) = {} != {expect}",
            i_fc.amps()
        );
    }
}

/// Section 3.2: the motivational example's three settings.
#[test]
fn motivational_example_fuel_totals() {
    let opt = FuelOptimizer::dac07();
    let profile = SlotProfile::new(
        Seconds::new(20.0),
        Amps::new(0.2),
        Seconds::new(10.0),
        Amps::new(1.2),
    )
    .expect("valid");
    let storage = StorageContext::balanced(Charge::ZERO, Charge::new(200.0));

    // Setting (b): 16 A·s (paper prints 16).
    let asap = opt.asap_fuel(&profile).expect("in range");
    assert!((asap.amp_seconds() - 16.08).abs() < 0.05);
    // Setting (c): 13.45 A·s, I_F = 0.53 A.
    let plan = opt.plan_slot(&profile, &storage, None).expect("feasible");
    assert!((plan.fuel.amp_seconds() - 13.45).abs() < 0.02);
    assert!((plan.i_f_idle.amps() - 0.533).abs() < 1e-3);
    // (c) vs (b): 15.9 % lower.
    assert!(((1.0 - plan.fuel / asap) - 0.159).abs() < 0.005);
    // Setting (a): the paper prints 36 A·s but that uses I_F = 1.2 instead
    // of I_fc = 1.306; the consistent value is 39.2 A·s.
    let conv = opt.conv_fuel(&profile).expect("in range");
    assert!((conv.amp_seconds() - 39.18).abs() < 0.05);
}

/// Table 2 (Experiment 1): ordering and bands. Our FC-DPM lands at the
/// paper's 30.8 % almost exactly; our ASAP baseline is somewhat more
/// efficient than the authors' (see EXPERIMENTS.md).
#[test]
fn table_2_experiment_1() {
    let scenario = Scenario::experiment1();
    let cap = Charge::from_milliamp_minutes(100.0);
    let conv = run(&scenario, &mut ConvDpm::dac07(), cap);
    let asap = run(&scenario, &mut AsapDpm::dac07(cap), cap);
    let fc = run(&scenario, &mut fc_policy(&scenario, cap), cap);

    let asap_norm = asap.normalized_fuel(&conv);
    let fc_norm = fc.normalized_fuel(&conv);
    assert!(fc_norm < asap_norm, "FC-DPM must beat ASAP-DPM");
    assert!(asap_norm < 0.6, "ASAP must crush Conv (paper: 40.8 %)");
    assert!(
        (0.27..0.36).contains(&fc_norm),
        "FC-DPM vs Conv = {fc_norm:.3}, paper 0.308"
    );
    assert!(
        fc.lifetime_extension_over(&asap) > 1.05,
        "lifetime extension {:.3}",
        fc.lifetime_extension_over(&asap)
    );
    // Conv-DPM's absolute rate is pinned by Equation 4.
    assert!((conv.mean_stack_current().amps() - 1.3061).abs() < 1e-3);
}

/// Table 3 (Experiment 2): ordering, and the paper's observation that the
/// Experiment-2 saving is smaller than Experiment-1's.
#[test]
fn table_3_experiment_2() {
    let cap = Charge::from_milliamp_minutes(100.0);
    let exp1 = Scenario::experiment1();
    let exp2 = Scenario::experiment2();

    let conv2 = run(&exp2, &mut ConvDpm::dac07(), cap);
    let asap2 = run(&exp2, &mut AsapDpm::dac07(cap), cap);
    let fc2 = run(&exp2, &mut fc_policy(&exp2, cap), cap);
    assert!(fc2.normalized_fuel(&conv2) < asap2.normalized_fuel(&conv2));

    let asap1 = run(&exp1, &mut AsapDpm::dac07(cap), cap);
    let fc1 = run(&exp1, &mut fc_policy(&exp1, cap), cap);
    let saving1 = 1.0 - fc1.normalized_fuel(&asap1);
    let saving2 = 1.0 - fc2.normalized_fuel(&asap2);
    assert!(
        saving1 > saving2,
        "paper: exp1 saving (24.4 %) exceeds exp2 saving (15.5 %); got {saving1:.3} vs {saving2:.3}"
    );
}

/// Figure 7's qualitative claim: the FC-DPM output profile is much
/// flatter than ASAP-DPM's (that flatness is where the fuel saving comes
/// from, by convexity).
#[test]
fn figure_7_profile_flatness() {
    let scenario = Scenario::experiment1();
    let cap = Charge::from_milliamp_minutes(100.0);
    let sim = HybridSimulator::dac07(&scenario.device);

    let record = |policy: &mut dyn FcOutputPolicy| {
        let mut storage = IdealStorage::new(cap, cap * 0.5);
        let mut sleep = PredictiveSleep::new(scenario.rho);
        let mut rec = ProfileRecorder::new(Seconds::new(0.5), Seconds::new(300.0));
        sim.run_recorded(&scenario.trace, &mut sleep, policy, &mut storage, &mut rec)
            .expect("simulation succeeds");
        rec
    };
    let variance = |rec: &ProfileRecorder| {
        let xs: Vec<f64> = rec.samples().iter().map(|s| s.i_f.amps()).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64
    };

    let asap = record(&mut AsapDpm::dac07(cap));
    let fc = record(&mut fc_policy(&scenario, cap));
    assert!(
        variance(&fc) < 0.25 * variance(&asap),
        "FC-DPM variance {:.4} not ≪ ASAP variance {:.4}",
        variance(&fc),
        variance(&asap)
    );
}

/// Figure 2 anchors: open-circuit voltage and power capacity.
#[test]
fn figure_2_stack_anchors() {
    let stack = PolarizationCurve::bcs_20w();
    assert!((stack.open_circuit_voltage().volts() - 18.2).abs() < 1e-9);
    let mpp = stack.max_power_point();
    assert!((18.0..23.0).contains(&mpp.power.watts()));
}

/// Figure 3 anchors: shape of the three efficiency curves. Curve (b) is
/// unimodal — it peaks in the low hundreds of milliamps and falls from
/// there, exactly as in the paper's measurement — and sits above curve
/// (c) across the whole range.
#[test]
fn figure_3_efficiency_shapes() {
    let variable = FcSystem::dac07_variable_fan();
    let onoff = FcSystem::dac07_on_off_fan();
    let range = CurrentRange::dac07();
    let etas: Vec<f64> = range
        .sweep(12)
        .into_iter()
        .map(|i| {
            let eta = variable.system_efficiency(i).expect("in range").value();
            let flat = onoff.system_efficiency(i).expect("in range").value();
            assert!(eta >= flat, "curve (b) must sit above curve (c) at {i}");
            eta
        })
        .collect();
    // The overall trend is downward: the top of the range is clearly less
    // efficient than the peak, which is what FC-DPM exploits.
    let peak = etas.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let last = *etas.last().expect("non-empty sweep");
    assert!(
        peak - last > 0.02,
        "curve (b) too flat: peak {peak}, end {last}"
    );
    // Past the peak the curve falls monotonically.
    let peak_idx = etas.iter().position(|e| *e == peak).expect("peak exists");
    for w in etas[peak_idx..].windows(2) {
        assert!(w[1] <= w[0] + 1e-9, "curve (b) must fall after its peak");
    }
}

/// Figure 6 / Section 5.1-5.2: derived break-even times.
#[test]
fn break_even_times() {
    assert!((presets::dvd_camcorder().break_even_time().seconds() - 1.0).abs() < 0.05);
    assert!((presets::experiment2_device().break_even_time().seconds() - 10.0).abs() < 1e-9);
}
