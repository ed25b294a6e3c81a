//! Replays slot timelines through the explicit power-state machine to
//! prove every timeline is a legal mode schedule with the right costs.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    reason = "binaries and tests may panic"
)]

use fcdpm::device::SegmentKind;
use fcdpm::prelude::*;

fn replay(spec: &DeviceSpec, timeline: &SlotTimeline) -> PowerStateMachine {
    let mut fsm = PowerStateMachine::new(spec.clone());
    for seg in timeline.segments() {
        match seg.kind {
            SegmentKind::IdleStandby => fsm.dwell(seg.duration),
            SegmentKind::PowerDown => {
                fsm.request(PowerMode::Sleep)
                    .expect("standby → sleep is legal");
            }
            SegmentKind::Sleep => fsm.dwell(seg.duration),
            SegmentKind::WakeUp => {
                fsm.request(PowerMode::Standby)
                    .expect("sleep → standby is legal");
            }
            SegmentKind::StartUp => {
                fsm.request(PowerMode::Run).expect("standby → run is legal");
            }
            SegmentKind::Run => fsm.dwell(seg.duration),
            SegmentKind::ShutDown => {
                fsm.request(PowerMode::Standby)
                    .expect("run → standby is legal");
            }
        }
    }
    fsm
}

#[test]
fn sleep_slot_is_a_legal_schedule() {
    let spec = presets::dvd_camcorder();
    let i_run = spec.mode_current(PowerMode::Run);
    let timeline = SlotTimeline::build(&spec, Seconds::new(14.0), true, Seconds::new(3.03), i_run);
    let fsm = replay(&spec, &timeline);
    assert_eq!(fsm.mode(), PowerMode::Standby, "slot ends back in standby");
    assert_eq!(fsm.transitions(), 4);
    // The FSM's clock equals the timeline's duration: the timeline hides
    // no time.
    assert!(
        fsm.clock().approx_eq(timeline.total_duration(), 1e-9),
        "clock {} vs timeline {}",
        fsm.clock(),
        timeline.total_duration()
    );
}

#[test]
fn standby_slot_is_a_legal_schedule() {
    let spec = presets::dvd_camcorder();
    let i_run = spec.mode_current(PowerMode::Run);
    let timeline = SlotTimeline::build(&spec, Seconds::new(0.7), false, Seconds::new(3.03), i_run);
    let fsm = replay(&spec, &timeline);
    assert_eq!(fsm.mode(), PowerMode::Standby);
    assert_eq!(fsm.transitions(), 2); // start-up + shut-down only
    assert!(fsm.clock().approx_eq(timeline.total_duration(), 1e-9));
}

#[test]
fn every_slot_of_a_whole_trace_replays() {
    let spec = presets::dvd_camcorder();
    let trace = CamcorderTrace::dac07().seed(5).build();
    let t_be = spec.break_even_time();
    for slot in trace.slots() {
        let sleeps = slot.idle >= t_be;
        let timeline = SlotTimeline::build(
            &spec,
            slot.idle,
            sleeps,
            slot.active,
            slot.active_current(spec.bus_voltage()),
        );
        let fsm = replay(&spec, &timeline);
        assert_eq!(fsm.mode(), PowerMode::Standby);
    }
}

#[test]
fn experiment2_device_replays_without_startup_edges() {
    let spec = presets::experiment2_device();
    let timeline = SlotTimeline::build(
        &spec,
        Seconds::new(15.0),
        true,
        Seconds::new(3.0),
        Amps::new(1.2),
    );
    let fsm = replay(&spec, &timeline);
    // Start-up/shut-down are zero-length, so only the two sleep edges
    // appear — but the FSM still passed through RUN legally? No: with a
    // zero-length start-up the timeline omits the segment entirely, so
    // the replay stays in STANDBY during the run dwell. That is the
    // documented semantics of folding instantaneous transitions.
    assert!(fsm.transitions() >= 2);
    assert!(fsm.clock().approx_eq(timeline.total_duration(), 1e-9));
}
