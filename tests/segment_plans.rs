//! Property-based pins of the segment-plan contract on randomized
//! workloads.
//!
//! The fixed-trace suite in `tests/coalescing.rs` checks the reference
//! experiment; this one draws synthetic traces (and fault schedules) at
//! random and re-asserts the same guarantees case after case:
//!
//! * **Plan completeness** — every shipped policy integrates on the
//!   fast path with zero stepped chunks, whatever the workload.
//! * **Mode agreement** — the coalesced and per-chunk integrators
//!   drive the identical plan sequence (equal consultation counts) and
//!   agree on the accumulated physics to 1e-6, with and without an
//!   active fault schedule, on slot traces (`run`) and on unstructured
//!   load profiles (`run_profile`) alike.
//! * **Control-step invariance** — the plan split points come from
//!   `time_to_soc`, not the chunk grid, so `deficit_time` and the
//!   other time-normalized metrics do not move with the control step.
//! * **Schedule replay** — one planned sleep schedule serves every FC
//!   policy, storage element and fault schedule on its trace, bit for
//!   bit.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    reason = "binaries and tests may panic"
)]

use fcdpm_core::dpm::PredictiveSleep;
use fcdpm_device::{SleepDirective, SlotTimeline};
use fcdpm_faults::{
    EfficiencyFade, FaultEvent, FaultKind, FaultSchedule, FuelStarvation, PredictorDropout,
    PredictorNoise, SelfDischarge, StorageFade,
};
use fcdpm_fuelcell::LinearEfficiency;
use fcdpm_sim::fixture::{
    reference_capacity, reference_storage, run_reference_on, storage_at, ReferencePolicy,
};
use fcdpm_sim::{HybridSimulator, SimError, SimMetrics};
use fcdpm_storage::{ChargeStorage, KineticBattery, SuperCapacitor};
use fcdpm_units::{CurrentRange, Seconds, Volts, Watts};
use fcdpm_workload::{LoadProfile, Scenario, SyntheticTrace};
use proptest::prelude::*;

/// A randomized Experiment-2-style scenario: the synthetic uniform
/// workload with drawn slot-length and power distributions. Powers up
/// to 18 W (1.5 A at the 12 V bus) exceed the 1.2 A stack rail, so a
/// share of the cases brown out and exercise the deficit accounting.
fn random_scenario(seed: u64, idle_hi: f64, active_hi: f64, p_hi: f64, horizon: f64) -> Scenario {
    let mut scenario = Scenario::experiment2_seeded(seed);
    scenario.trace = SyntheticTrace::dac07()
        .seed(seed)
        .idle_range(Seconds::new(2.0), Seconds::new(idle_hi))
        .active_range(Seconds::new(1.0), Seconds::new(active_hi))
        .power_range(Watts::new(8.0), Watts::new(p_hi))
        .horizon(Seconds::new(horizon))
        .build();
    scenario
}

fn close(x: f64, y: f64) -> bool {
    (x - y).abs() <= 1e-6 * (1.0 + x.abs().max(y.abs()))
}

/// The same physics comparison as `tests/coalescing.rs`, as a
/// `Result` so property bodies can `?` it and report the failing
/// metric alongside the drawn inputs.
fn physics_match(a: &SimMetrics, b: &SimMetrics, label: &str) -> Result<(), String> {
    if a.slots != b.slots {
        return Err(format!("{label}: slots {} vs {}", a.slots, b.slots));
    }
    if a.sleeps != b.sleeps {
        return Err(format!("{label}: sleeps {} vs {}", a.sleeps, b.sleeps));
    }
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
            "fault_deficit_time",
            a.fault_deficit_time.seconds(),
            b.fault_deficit_time.seconds(),
        ),
        (
            "final_soc",
            a.final_soc.amp_seconds(),
            b.final_soc.amp_seconds(),
        ),
    ];
    for (name, x, y) in pairs {
        if !close(x, y) {
            return Err(format!("{label}: {name} diverged ({x} vs {y})"));
        }
    }
    Ok(())
}

/// The scenario's trace flattened into an unstructured load profile
/// (every idle period slept), as a multi-device composition delivers it.
fn trace_profile(scenario: &Scenario) -> LoadProfile {
    let timelines: Vec<SlotTimeline> = scenario
        .trace
        .slots()
        .iter()
        .map(|slot| {
            SlotTimeline::build_with_directive(
                &scenario.device,
                slot.idle,
                SleepDirective::SleepImmediately,
                slot.active,
                slot.active_current(scenario.device.bus_voltage()),
            )
        })
        .collect();
    LoadProfile::from_timelines("trace", &timelines)
}

/// `run_profile` of a reference policy on its reference storage.
fn run_profile_on(
    sim: &HybridSimulator<'_>,
    scenario: &Scenario,
    profile: &LoadProfile,
    policy: ReferencePolicy,
) -> Result<SimMetrics, SimError> {
    let mut storage = reference_storage();
    let mut policy = policy.build(scenario);
    Ok(sim
        .run_profile(profile, policy.as_mut(), &mut storage)?
        .metrics)
}

/// The three storage elements at the reference capacity, half charged,
/// wired as the batch runner wires them.
fn storages() -> [Box<dyn ChargeStorage>; 3] {
    let capacity = reference_capacity();
    [
        Box::new(storage_at(capacity)),
        Box::new(SuperCapacitor::new(
            capacity.amp_seconds() / 6.0,
            Volts::new(6.0),
            Volts::new(12.0),
            0.0,
            capacity * 0.5,
        )),
        Box::new(KineticBattery::new(capacity, 0.5, 0.3, 0.01)),
    ]
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

proptest! {
    /// Every shipped policy plans every segment in closed form on
    /// arbitrary synthetic workloads: the fast path steps zero chunks,
    /// both integration modes consult the policy at exactly the same
    /// points, and the physics agree to 1e-6 — through `run` on the
    /// slot trace and through `run_profile` on the same trace flattened
    /// into an unstructured profile.
    #[test]
    fn coalesced_and_per_chunk_agree_on_random_traces(
        seed in 0u64..10_000,
        idle_hi in 4.0f64..30.0,
        active_hi in 1.5f64..8.0,
        p_hi in 10.0f64..18.0,
        horizon in 40.0f64..160.0,
    ) {
        let scenario = random_scenario(seed, idle_hi, active_hi, p_hi, horizon);
        for policy in ReferencePolicy::ALL {
            let fast_sim = HybridSimulator::dac07(&scenario.device);
            let fast = run_reference_on(&fast_sim, &scenario, policy)
                .map_err(|e| format!("{}: coalesced run failed: {e}", policy.label()))?;
            let slow_sim = HybridSimulator::dac07(&scenario.device).without_coalescing();
            let slow = run_reference_on(&slow_sim, &scenario, policy)
                .map_err(|e| format!("{}: per-chunk run failed: {e}", policy.label()))?;
            prop_assert_eq!(
                fast.chunks_stepped, 0,
                "{} stepped chunks on the fast path", policy.label()
            );
            prop_assert_eq!(
                fast.policy_consultations, slow.policy_consultations,
                "{} consultation counts diverged", policy.label()
            );
            physics_match(&fast, &slow, policy.label())?;
        }
        let profile = trace_profile(&scenario);
        for policy in ReferencePolicy::ALL {
            let label = format!("{} (profile)", policy.label());
            let fast_sim = HybridSimulator::dac07(&scenario.device);
            let fast = run_profile_on(&fast_sim, &scenario, &profile, policy)
                .map_err(|e| format!("{label}: coalesced run failed: {e}"))?;
            let slow_sim = HybridSimulator::dac07(&scenario.device).without_coalescing();
            let slow = run_profile_on(&slow_sim, &scenario, &profile, policy)
                .map_err(|e| format!("{label}: per-chunk run failed: {e}"))?;
            prop_assert_eq!(fast.chunks_stepped, 0, "{} stepped chunks", &label);
            prop_assert_eq!(
                fast.policy_consultations, slow.policy_consultations,
                "{} consultation counts diverged", &label
            );
            physics_match(&fast, &slow, &label)?;
        }
    }

    /// Mode agreement survives an active fault schedule: efficiency
    /// fade, a fuel-starvation window and a parasitic leak injected at
    /// drawn (deliberately off-grid) instants perturb both integration
    /// modes identically.
    #[test]
    fn plans_agree_under_random_fault_schedules(
        seed in 0u64..10_000,
        p_hi in 10.0f64..18.0,
        horizon in 80.0f64..200.0,
        fade_at in 5.0f64..40.0,
        alpha_scale in 0.7f64..1.0,
        beta_scale in 1.0f64..1.3,
        starve_at in 40.0f64..80.0,
        starve_len in 5.0f64..40.0,
        starve_max in 0.3f64..0.9,
        leak_at in 80.0f64..120.0,
        leak_a in 0.001f64..0.01,
    ) {
        let scenario = random_scenario(seed, 20.0, 5.0, p_hi, horizon);
        let schedule = FaultSchedule {
            seed,
            events: vec![
                FaultEvent {
                    at_s: fade_at,
                    kind: FaultKind::EfficiencyFade(EfficiencyFade { alpha_scale, beta_scale }),
                },
                FaultEvent {
                    at_s: starve_at,
                    kind: FaultKind::FuelStarvation(FuelStarvation {
                        until_s: starve_at + starve_len,
                        max_a: starve_max,
                    }),
                },
                FaultEvent {
                    at_s: leak_at,
                    kind: FaultKind::SelfDischarge(SelfDischarge { leak_a }),
                },
            ],
        };
        for policy in ReferencePolicy::ALL {
            let fast_sim =
                HybridSimulator::dac07(&scenario.device).with_faults(schedule.clone());
            let fast = run_reference_on(&fast_sim, &scenario, policy)
                .map_err(|e| format!("{}: coalesced run failed: {e}", policy.label()))?;
            let slow_sim = HybridSimulator::dac07(&scenario.device)
                .with_faults(schedule.clone())
                .without_coalescing();
            let slow = run_reference_on(&slow_sim, &scenario, policy)
                .map_err(|e| format!("{}: per-chunk run failed: {e}", policy.label()))?;
            prop_assert_eq!(
                fast.faults_applied, slow.faults_applied,
                "{} applied different fault counts", policy.label()
            );
            prop_assert_eq!(
                fast.policy_consultations, slow.policy_consultations,
                "{} consultation counts diverged under faults", policy.label()
            );
            physics_match(&fast, &slow, policy.label())?;
        }
    }

    /// On the fast path the control step only sets the chunked
    /// oracle's resolution, which never runs here: segment plans split at
    /// analytic SoC crossings, so `deficit_time` (and every other
    /// time-normalized metric) is invariant across a 10× step change
    /// for the piecewise and steady planners alike.
    #[test]
    fn deficit_time_is_control_step_invariant_on_random_traces(
        seed in 0u64..10_000,
        p_hi in 12.0f64..18.0,
        horizon in 40.0f64..160.0,
    ) {
        let scenario = random_scenario(seed, 15.0, 6.0, p_hi, horizon);
        for policy in [
            ReferencePolicy::Asap,
            ReferencePolicy::Windowed,
            ReferencePolicy::Quantized,
        ] {
            let reference_sim = sim_with_step(&scenario, 0.5);
            let reference = run_reference_on(&reference_sim, &scenario, policy)
                .map_err(|e| format!("{}: reference run failed: {e}", policy.label()))?;
            for step in [0.1, 1.0] {
                let sim = sim_with_step(&scenario, step);
                let m = run_reference_on(&sim, &scenario, policy)
                    .map_err(|e| format!("{}: run at {step} s failed: {e}", policy.label()))?;
                prop_assert_eq!(
                    m.chunks_stepped, 0,
                    "{} stepped chunks at {} s", policy.label(), step
                );
                physics_match(&m, &reference, &format!("{} @ {step} s", policy.label()))?;
            }
        }
    }

    /// One sleep schedule, planned once on a fault-free simulator,
    /// replays every run on its trace: each shipped policy on an ideal,
    /// super-capacitor and KiBaM buffer, with no faults and under a
    /// drawn schedule that also drops and perturbs the predictions.
    /// Every replay equals an independent `run` with a fresh sleep
    /// policy, work counters included.
    #[test]
    fn one_schedule_replays_every_policy_storage_and_fault(
        seed in 0u64..10_000,
        p_hi in 10.0f64..18.0,
        horizon in 60.0f64..200.0,
        starve_at in 10.0f64..80.0,
        starve_len in 5.0f64..60.0,
        starve_max in 0.3f64..0.9,
        fade_at in 20.0f64..150.0,
        capacity_scale in 0.3f64..1.0,
        dropout_at in 0.0f64..60.0,
        dropout_len in 5.0f64..40.0,
        noise_at in 60.0f64..120.0,
        noise_magnitude in 0.0f64..0.9,
    ) {
        let scenario = random_scenario(seed, 20.0, 5.0, p_hi, horizon);
        let faults = FaultSchedule {
            seed,
            events: vec![
                FaultEvent {
                    at_s: starve_at,
                    kind: FaultKind::FuelStarvation(FuelStarvation {
                        until_s: starve_at + starve_len,
                        max_a: starve_max,
                    }),
                },
                FaultEvent {
                    at_s: fade_at,
                    kind: FaultKind::StorageFade(StorageFade { capacity_scale }),
                },
                FaultEvent {
                    at_s: dropout_at,
                    kind: FaultKind::PredictorDropout(PredictorDropout {
                        until_s: dropout_at + dropout_len,
                    }),
                },
                FaultEvent {
                    at_s: noise_at,
                    kind: FaultKind::PredictorNoise(PredictorNoise {
                        until_s: noise_at + 60.0,
                        magnitude: noise_magnitude,
                    }),
                },
            ],
        };
        let plain = HybridSimulator::dac07(&scenario.device);
        let faulted = HybridSimulator::dac07(&scenario.device).with_faults(faults);
        let schedule = plain.plan(&scenario.trace, &mut PredictiveSleep::new(scenario.rho));
        prop_assert_eq!(schedule.len(), scenario.trace.len());
        for (sim, fault_label) in [(&plain, "no faults"), (&faulted, "faults")] {
            for policy in ReferencePolicy::ALL {
                for (mut replay_storage, mut run_storage) in storages().into_iter().zip(storages()) {
                    let label = format!("{} on {} ({fault_label})", policy.label(), seed);
                    let replayed = sim
                        .run_schedule(&schedule, policy.build(&scenario).as_mut(), replay_storage.as_mut())
                        .map_err(|e| format!("{label}: replay failed: {e}"))?
                        .metrics;
                    let independent = sim
                        .run(
                            &scenario.trace,
                            &mut PredictiveSleep::new(scenario.rho),
                            policy.build(&scenario).as_mut(),
                            run_storage.as_mut(),
                        )
                        .map_err(|e| format!("{label}: run failed: {e}"))?
                        .metrics;
                    prop_assert_eq!(replayed, independent, "{}", label);
                }
            }
        }
    }
}
