//! Device presets from the paper's two experiments.
//!
//! Each preset's constants live in a [`PresetSpec`] constant whose
//! validity (the same rules [`DeviceSpec`] enforces at build time) is
//! proven by a `const _: () = assert!(…)` item right next to the
//! literals, so the constructors below are infallible — no `expect`, no
//! panic-policy baseline entry.

use crate::spec::PresetSpec;
use crate::DeviceSpec;

/// Figure 6 constants for [`dvd_camcorder`].
const CAMCORDER: PresetSpec = PresetSpec {
    name: "DVD camcorder (DAC'07 Experiment 1)",
    bus_voltage_v: 12.0,
    run_w: 14.65,
    standby_w: 4.84,
    sleep_w: 2.4,
    // Figure 6: τ_PD = τ_WU = 0.5 s, I_PD = I_WU = 0.40 A at 12 V.
    t_power_down_s: 0.5,
    p_power_down_w: 4.8,
    t_wake_up_s: 0.5,
    p_wake_up_w: 4.8,
    t_start_up_s: 1.5,
    t_shut_down_s: 0.5,
    break_even_s: None,
};
const _: () = assert!(CAMCORDER.is_valid());

/// Section 5.2 constants for [`experiment2_device`]. The 14 W run power
/// is the mean of the experiment's U[12 W, 16 W] active power.
const EXPERIMENT2: PresetSpec = PresetSpec {
    name: "synthetic device (DAC'07 Experiment 2)",
    bus_voltage_v: 12.0,
    run_w: 14.0,
    standby_w: 4.84,
    sleep_w: 2.4,
    t_power_down_s: 1.0,
    p_power_down_w: 14.4,
    t_wake_up_s: 1.0,
    p_wake_up_w: 14.4,
    t_start_up_s: 0.0,
    t_shut_down_s: 0.0,
    break_even_s: Some(10.0),
};
const _: () = assert!(EXPERIMENT2.is_valid());

/// Constants for [`wireless_radio`], the second device of the runner's
/// multi-device workload (bursty short-idle traffic).
const RADIO: PresetSpec = PresetSpec {
    name: "radio",
    bus_voltage_v: 12.0,
    run_w: 6.0,
    standby_w: 1.2,
    sleep_w: 0.3,
    t_power_down_s: 0.2,
    p_power_down_w: 1.0,
    t_wake_up_s: 0.2,
    p_wake_up_w: 1.0,
    t_start_up_s: 0.0,
    t_shut_down_s: 0.0,
    break_even_s: None,
};
const _: () = assert!(RADIO.is_valid());

/// Constants for [`sensor_node`], the third device of the runner's
/// multi-device workload (long idle periods, cheap transitions).
const SENSOR: PresetSpec = PresetSpec {
    name: "sensor",
    bus_voltage_v: 12.0,
    run_w: 2.5,
    standby_w: 0.6,
    sleep_w: 0.1,
    t_power_down_s: 0.1,
    p_power_down_w: 0.5,
    t_wake_up_s: 0.1,
    p_wake_up_w: 0.5,
    t_start_up_s: 0.0,
    t_shut_down_s: 0.0,
    break_even_s: None,
};
const _: () = assert!(SENSOR.is_valid());

/// The DVD camcorder of Experiment 1 (Figure 6):
///
/// * RUN 14.65 W (4× DVD writer writing from the 16 MB buffer);
/// * STANDBY 4.84 W (encoder filling the buffer, writer idle);
/// * SLEEP 2.4 W (writer powered down);
/// * SLEEP transitions 0.5 s at 0.4 A (4.8 W at 12 V) each way;
/// * STANDBY → RUN 1.5 s and RUN → STANDBY 0.5 s at RUN power;
/// * derived break-even time ≈ 1 s, matching the paper's stated value.
#[must_use]
pub fn dvd_camcorder() -> DeviceSpec {
    CAMCORDER.into_spec()
}

/// The synthetic device of Experiment 2 (Section 5.2): same mode powers as
/// the camcorder, but SLEEP transitions of 1 s at 1.2 A (14.4 W at 12 V)
/// each way and a stated break-even time of 10 s. The STANDBY ↔ RUN
/// transitions are folded into the trace's active periods (the paper gives
/// none for this experiment).
#[must_use]
pub fn experiment2_device() -> DeviceSpec {
    EXPERIMENT2.into_spec()
}

/// A 6 W wireless radio on the 12 V bus: standby 1.2 W, sleep 0.3 W,
/// SLEEP transitions 0.2 s at 1 W each way. Used by the runner's
/// multi-device profiles alongside the camcorder.
#[must_use]
pub fn wireless_radio() -> DeviceSpec {
    RADIO.into_spec()
}

/// A 2.5 W sensor node on the 12 V bus: standby 0.6 W, sleep 0.1 W,
/// SLEEP transitions 0.1 s at 0.5 W each way. Used by the runner's
/// multi-device profiles alongside the camcorder.
#[must_use]
pub fn sensor_node() -> DeviceSpec {
    SENSOR.into_spec()
}
