//! One bench per figure: the work that regenerates each figure's data.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use fcdpm_core::optimizer::{FuelOptimizer, SlotProfile, StorageContext};
use fcdpm_fuelcell::{FcSystem, PolarizationCurve};
use fcdpm_sim::fixture::{run_reference, ReferencePolicy};
use fcdpm_units::{Amps, Charge, Seconds};
use fcdpm_workload::Scenario;

/// Figure 2: sampling the stack I-V-P curve.
fn fig2_stack_curve(c: &mut Criterion) {
    let stack = PolarizationCurve::bcs_20w();
    c.bench_function("fig2_stack_curve", |b| {
        b.iter(|| black_box(stack.sample_curve(Amps::new(1.5), 31)));
    });
}

/// Figure 3: solving the composed system's efficiency curve for both
/// controller configurations.
fn fig3_efficiency(c: &mut Criterion) {
    let variable = FcSystem::dac07_variable_fan();
    let onoff = FcSystem::dac07_on_off_fan();
    c.bench_function("fig3_efficiency", |b| {
        b.iter(|| {
            let v = variable.efficiency_curve(23).expect("in range");
            let o = onoff.efficiency_curve(23).expect("in range");
            black_box((v, o))
        });
    });
}

/// Figure 4 / Section 3.2: planning the motivational slot under all three
/// settings.
fn fig4_motivation(c: &mut Criterion) {
    let opt = FuelOptimizer::dac07();
    let profile = SlotProfile::new(
        Seconds::new(20.0),
        Amps::new(0.2),
        Seconds::new(10.0),
        Amps::new(1.2),
    )
    .expect("valid");
    let storage = StorageContext::balanced(Charge::ZERO, Charge::new(200.0));
    c.bench_function("fig4_motivation", |b| {
        b.iter(|| {
            let conv = opt.conv_fuel(&profile).expect("in range");
            let asap = opt.asap_fuel(&profile).expect("in range");
            let plan = opt.plan_slot(&profile, &storage, None).expect("feasible");
            black_box((conv, asap, plan))
        });
    });
}

/// Figure 7: the 300 s profile runs (ASAP and FC-DPM on Experiment 1).
fn fig7_profiles(c: &mut Criterion) {
    let scenario = Scenario::experiment1();
    let mut group = c.benchmark_group("fig7_profiles");
    group.sample_size(10);
    group.bench_function("asap", |b| {
        b.iter(|| {
            black_box(run_reference(&scenario, ReferencePolicy::Asap))
                .expect("paper configuration simulates cleanly")
        });
    });
    group.bench_function("fcdpm", |b| {
        b.iter(|| {
            black_box(run_reference(&scenario, ReferencePolicy::FcDpm))
                .expect("paper configuration simulates cleanly")
        });
    });
    group.finish();
}

criterion_group!(
    figures,
    fig2_stack_curve,
    fig3_efficiency,
    fig4_motivation,
    fig7_profiles
);
criterion_main!(figures);
