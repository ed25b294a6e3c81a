//! Cross-step determinism of the chunk-coalescing fast path.
//!
//! Two families of guarantees:
//!
//! * **Coalesced vs per-chunk** — for every reference policy, the
//!   closed-form fast path and the per-chunk loop drive the identical
//!   segment-plan sequence and agree on all counts exactly and on
//!   accumulated physics to tolerance. Every shipped policy plans in
//!   closed form now (`begin_segment`), so the fast path steps zero
//!   chunks across the board — ASAP-DPM's recharge trigger included,
//!   via its analytic SoC-crossing plan.
//! * **Control-step invariance** — time-normalized metrics
//!   (`deficit_time` foremost, the bug this suite pins) do not scale
//!   with the chunk size, while the per-chunk work counters do.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    reason = "binaries and tests may panic"
)]

use fcdpm_core::dpm::PredictiveSleep;
use fcdpm_core::policy::ConvDpm;
use fcdpm_fuelcell::LinearEfficiency;
use fcdpm_sim::fixture::{run_reference, run_reference_on, ReferencePolicy};
use fcdpm_sim::{HybridSimulator, SimMetrics};
use fcdpm_storage::IdealStorage;
use fcdpm_units::{Charge, CurrentRange, Seconds};
use fcdpm_workload::Scenario;

fn close(x: f64, y: f64) -> bool {
    (x - y).abs() <= 1e-6 * (1.0 + x.abs().max(y.abs()))
}

fn assert_physics_match(a: &SimMetrics, b: &SimMetrics, label: &str) {
    assert_eq!(a.slots, b.slots, "{label}: slots");
    assert_eq!(a.sleeps, b.sleeps, "{label}: sleeps");
    let pairs = [
        (
            "fuel",
            a.fuel.total().amp_seconds(),
            b.fuel.total().amp_seconds(),
        ),
        (
            "delivered",
            a.delivered_charge.amp_seconds(),
            b.delivered_charge.amp_seconds(),
        ),
        (
            "load",
            a.load_charge.amp_seconds(),
            b.load_charge.amp_seconds(),
        ),
        (
            "bled",
            a.bled_charge.amp_seconds(),
            b.bled_charge.amp_seconds(),
        ),
        (
            "deficit",
            a.deficit_charge.amp_seconds(),
            b.deficit_charge.amp_seconds(),
        ),
        (
            "deficit_time",
            a.deficit_time.seconds(),
            b.deficit_time.seconds(),
        ),
        (
            "final_soc",
            a.final_soc.amp_seconds(),
            b.final_soc.amp_seconds(),
        ),
    ];
    for (name, x, y) in pairs {
        assert!(close(x, y), "{label}: {name} diverged ({x} vs {y})");
    }
}

fn sim_with_step(scenario: &Scenario, step: f64) -> HybridSimulator<'_> {
    HybridSimulator::new(
        &scenario.device,
        Box::new(LinearEfficiency::dac07()),
        CurrentRange::dac07(),
        Seconds::new(step),
    )
    .expect("valid simulator configuration")
}

#[test]
fn coalesced_and_per_chunk_agree_for_every_policy() {
    let scenario = Scenario::experiment1();
    for policy in ReferencePolicy::ALL {
        let fast = run_reference(&scenario, policy).expect("coalesced run");
        let slow_sim = HybridSimulator::dac07(&scenario.device).without_coalescing();
        let slow = run_reference_on(&slow_sim, &scenario, policy).expect("per-chunk run");
        assert_physics_match(&fast, &slow, policy.label());
        // Every shipped policy plans in closed form: the fast path never
        // steps a chunk, the per-chunk path never coalesces one.
        assert_eq!(fast.chunks_stepped, 0, "{}", policy.label());
        assert_eq!(slow.chunks_coalesced, 0, "{}", policy.label());
    }
}

#[test]
fn piecewise_plan_drives_both_paths_identically() {
    // ASAP-DPM's trigger state machine is carried by its piecewise plan:
    // both integration modes consult `begin_segment` at the same points
    // and split at the same analytic SoC crossings, so the consultation
    // counts match exactly and the physics agree to tolerance.
    let scenario = Scenario::experiment1();
    let fast = run_reference(&scenario, ReferencePolicy::Asap).expect("coalesced run");
    let slow_sim = HybridSimulator::dac07(&scenario.device).without_coalescing();
    let slow = run_reference_on(&slow_sim, &scenario, ReferencePolicy::Asap).expect("per-chunk");
    assert_eq!(fast.chunks_stepped, 0);
    assert!(fast.chunks_coalesced > 0);
    assert_eq!(fast.policy_consultations, slow.policy_consultations);
    assert_physics_match(&fast, &slow, "asap");
}

#[test]
fn coalesced_metrics_are_control_step_invariant() {
    // Segment plans are independent of the chunk size — steady plans
    // trivially, crossing plans because the split point comes from
    // `time_to_soc`, not the chunk grid — so on the fast path the
    // control step can only show up in the work counters.
    let scenario = Scenario::experiment1();
    for policy in ReferencePolicy::ALL {
        let reference = run_reference(&scenario, policy).expect("reference");
        for step in [0.1, 1.0] {
            let sim = sim_with_step(&scenario, step);
            let m = run_reference_on(&sim, &scenario, policy).expect("runs");
            assert_physics_match(&m, &reference, &format!("{} @ {step} s", policy.label()));
        }
    }
}

#[test]
fn per_chunk_metrics_are_control_step_invariant() {
    let scenario = Scenario::experiment1();
    let run_at = |step: f64| {
        let sim = sim_with_step(&scenario, step).without_coalescing();
        run_reference_on(&sim, &scenario, ReferencePolicy::Conv).expect("runs")
    };
    let reference = run_at(0.5);
    for step in [0.1, 1.0] {
        let m = run_at(step);
        assert_physics_match(&m, &reference, &format!("per-chunk conv @ {step} s"));
        // The work counters are the step-dependent part.
        assert!(
            (step < 0.5) == (m.chunks_stepped > reference.chunks_stepped),
            "chunk count should scale with 1/step"
        );
    }
}

#[test]
fn deficit_time_does_not_scale_with_the_control_step() {
    // The camcorder's active load (14.65 W / 12 V ≈ 1.221 A) exceeds the
    // 1.2 A stack maximum, so with a near-empty buffer Conv browns out
    // for real stretches. The legacy `deficit_chunks` counter scaled 5×
    // between 0.1 s and 0.5 s chunks; `deficit_time` must not.
    let scenario = Scenario::experiment1();
    let deficit_at = |step: f64| {
        let sim = sim_with_step(&scenario, step).without_coalescing();
        let tiny = Charge::new(0.05);
        let mut storage = IdealStorage::new(tiny, Charge::ZERO);
        let mut sleep = PredictiveSleep::new(scenario.rho);
        let mut policy = ConvDpm::dac07();
        sim.run(&scenario.trace, &mut sleep, &mut policy, &mut storage)
            .expect("runs")
            .metrics
            .deficit_time
            .seconds()
    };
    let coarse = deficit_at(0.5);
    assert!(coarse > 1.0, "fixture should brown out, got {coarse} s");
    for step in [0.1, 1.0] {
        let other = deficit_at(step);
        let ratio = other / coarse;
        assert!(
            (0.95..1.05).contains(&ratio),
            "deficit_time scaled with the step: {other} s @ {step} s vs {coarse} s @ 0.5 s"
        );
    }
}
