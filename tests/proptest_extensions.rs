//! Property-based tests for the extension components: sleep directives,
//! quantized output, idle aggregation, and the kinetic battery.

use fcdpm::device::SleepDirective;
use fcdpm::prelude::*;
use proptest::prelude::*;

proptest! {
    /// Timeout timelines: time is conserved for every directive, the
    /// standby prefix never exceeds the timeout, and short idles never
    /// pay a transition.
    #[test]
    fn timeout_timeline_invariants(
        t_idle in 0.0f64..60.0,
        timeout in 0.0f64..30.0,
        t_active in 0.1f64..10.0,
    ) {
        let spec = presets::dvd_camcorder();
        let i_run = spec.mode_current(PowerMode::Run);
        let timeline = SlotTimeline::build_with_directive(
            &spec,
            Seconds::new(t_idle),
            SleepDirective::SleepAfter(Seconds::new(timeout)),
            Seconds::new(t_active),
            i_run,
        );
        // The idle phase is exactly the nominal idle (the wake-up is
        // charged to the active phase; power-down spill only occurs when
        // the idle outlasts the timeout by less than τ_PD — then the
        // spill goes into latency, not into shortening the idle phase).
        prop_assert!(timeline.idle_phase_duration().seconds() >= t_idle - 1e-9);
        if t_idle <= timeout {
            prop_assert!(!timeline.slept());
            prop_assert_eq!(timeline.task_latency(), spec.start_up_time());
        } else {
            prop_assert!(timeline.slept());
        }
        // Wall clock covers the nominal pieces.
        prop_assert!(
            timeline.total_duration().seconds() >= t_idle + t_active - 1e-9
        );
    }

    /// The quantized policy plans only supported levels.
    #[test]
    fn quantized_output_is_always_a_level(
        level_count in 2usize..16,
        demands in prop::collection::vec((0.0f64..2.0, 0.0f64..10.0), 1..50),
    ) {
        let levels = OutputLevels::uniform(fcdpm::units::CurrentRange::dac07(), level_count);
        let allowed: Vec<f64> = levels.as_slice().iter().map(|a| a.amps()).collect();
        let mut policy = Quantized::new(AsapDpm::dac07(Charge::new(6.0)), levels);
        policy.begin_slot(&fcdpm::core::policy::SlotStart {
            index: 0,
            directive: SleepDirective::Standby,
            predicted_idle: None,
            soc: Charge::new(3.0),
        });
        for (load, soc) in demands {
            let i = policy
                .begin_segment(
                    fcdpm::core::PolicyPhase::Idle,
                    Amps::new(load),
                    Charge::new(soc),
                    Seconds::new(1.0),
                )
                .current();
            prop_assert!(
                allowed.iter().any(|l| (l - i.amps()).abs() < 1e-12),
                "{} not in level set", i
            );
        }
    }

    /// Idle aggregation preserves total nominal duration and total active
    /// charge, never increases the slot count, and never defers past the
    /// budget.
    #[test]
    fn aggregation_invariants(
        seed in 0u64..500,
        min_idle in 0.0f64..15.0,
        max_defer in 0.0f64..40.0,
    ) {
        let trace = SyntheticTrace::dac07()
            .seed(seed)
            .idle_range(Seconds::new(0.5), Seconds::new(20.0))
            .active_range(Seconds::new(0.5), Seconds::new(3.0))
            .horizon(Seconds::from_minutes(5.0))
            .build();
        let agg = aggregate_idles(&trace, Seconds::new(min_idle), Seconds::new(max_defer));
        prop_assert!(agg.trace.len() <= trace.len());
        prop_assert_eq!(agg.merges, trace.len() - agg.trace.len());
        prop_assert!(agg.worst_deferral.seconds() <= max_defer + 1e-9);
        prop_assert!(
            agg.trace.total_duration().approx_eq(trace.total_duration(), 1e-6)
        );
        let charge = |t: &Trace| -> f64 {
            t.iter()
                .map(|s| {
                    (s.active_current(Volts::new(12.0)) * s.active).amp_seconds()
                })
                .sum()
        };
        prop_assert!((charge(&agg.trace) - charge(&trace)).abs() < 1e-6);
        // Idempotence: a second pass with the same parameters can only
        // merge chains the first pass's budget reset already allows — but
        // with a zero budget it must change nothing.
        let frozen = aggregate_idles(&agg.trace, Seconds::new(min_idle), Seconds::ZERO);
        prop_assert_eq!(frozen.merges, 0);
        prop_assert_eq!(frozen.trace.slots(), agg.trace.slots());
    }

    /// KiBaM never leaves its bounds and never creates charge.
    #[test]
    fn kibam_bounds_and_no_free_charge(
        c in 0.05f64..0.95,
        k in 0.0005f64..0.1,
        steps in prop::collection::vec((-2.0f64..2.0, 0.1f64..30.0), 1..30),
    ) {
        let cap = Charge::new(50.0);
        let mut batt = KineticBattery::new(cap, 0.8, c, k);
        let mut expected = batt.soc().amp_seconds();
        for (net, dt) in steps {
            let flow = batt.step(Amps::new(net), Seconds::new(dt));
            prop_assert!(batt.soc() >= Charge::new(-1e-6));
            prop_assert!(batt.soc() <= cap + Charge::new(1e-6));
            prop_assert!(batt.available() >= Charge::new(-1e-6));
            // Book-keep: soc changes only by what flowed.
            expected += flow.charged.amp_seconds() - flow.discharged.amp_seconds();
            prop_assert!(
                (batt.soc().amp_seconds() - expected).abs() < 1e-5,
                "soc {} vs book {}", batt.soc(), expected
            );
        }
    }

    /// The adaptive timeout always stays inside its clamp bounds.
    #[test]
    fn adaptive_timeout_bounded(
        idles in prop::collection::vec(0.0f64..100.0, 1..60),
    ) {
        use fcdpm::core::dpm::{AdaptiveTimeoutSleep, SleepPolicy};
        let (min, max) = (Seconds::new(0.5), Seconds::new(30.0));
        let mut dpm = AdaptiveTimeoutSleep::new(Seconds::new(2.0), 2.0, 0.5, min, max);
        for idle in idles {
            let d = dpm.decide(Seconds::new(1.0));
            match d.directive {
                SleepDirective::SleepAfter(t) => {
                    prop_assert!(t >= min && t <= max);
                }
                _ => prop_assert!(false, "adaptive timeout must emit SleepAfter"),
            }
            dpm.observe_idle(Seconds::new(idle));
        }
    }
}
