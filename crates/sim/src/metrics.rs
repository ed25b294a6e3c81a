//! Simulation metrics.

use core::fmt;

use fcdpm_fuelcell::FuelGauge;
use fcdpm_units::{Amps, Charge, Seconds};

/// Aggregate results of one simulation run.
#[derive(Debug, Default, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SimMetrics {
    /// Fuel consumption (`∫ I_fc dt`) and elapsed time.
    pub fuel: FuelGauge,
    /// Total charge drawn by the load.
    pub load_charge: Charge,
    /// Total charge delivered by the FC system (`∫ I_F dt`).
    pub delivered_charge: Charge,
    /// Charge dissipated through the bleeder by-pass (storage overflow).
    pub bled_charge: Charge,
    /// Unmet load charge (brownouts).
    pub deficit_charge: Charge,
    /// Total wall-clock time the load spent browned out.
    ///
    /// Unlike the chunk count it replaces, this is invariant under the
    /// control-step length and under chunk coalescing: within each
    /// integration step the brownout duration is apportioned as
    /// `dt · deficit / (deficit + discharged)`.
    pub deficit_time: Seconds,
    /// Number of slots in which the DPM layer slept.
    pub sleeps: usize,
    /// Number of slots simulated.
    pub slots: usize,
    /// Accumulated task latency from wake-up/start-up transitions.
    pub task_latency: Seconds,
    /// Storage state of charge at the end of the run.
    pub final_soc: Charge,
    /// Work counter: control chunks integrated one at a time.
    pub chunks_stepped: u64,
    /// Work counter: control chunks subsumed by coalesced segments
    /// (the chunks the fast path did *not* have to step).
    pub chunks_coalesced: u64,
    /// Work counter: policy consultations (`begin_segment` plans, one
    /// per plan phase).
    pub policy_consultations: u64,
    /// Fault events applied during the run (zero without an attached
    /// [`FaultSchedule`](fcdpm_faults::FaultSchedule)).
    pub faults_applied: u64,
    /// Downward degradation-ladder transitions the FC policy reported
    /// (zero for ordinary, non-resilient policies).
    pub degradations: u64,
    /// Wall-clock time the FC policy spent in a degraded fallback mode.
    pub time_in_fallback: Seconds,
    /// The portion of [`deficit_time`](Self::deficit_time) accrued while
    /// at least one injected fault was shaping the physics.
    pub fault_deficit_time: Seconds,
}

impl SimMetrics {
    /// Creates zeroed metrics.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Total wall-clock duration of the run.
    #[must_use]
    pub fn duration(&self) -> Seconds {
        self.fuel.elapsed()
    }

    /// Mean FC system output current over the run.
    #[must_use]
    pub fn mean_output_current(&self) -> Amps {
        if self.duration().is_zero() {
            Amps::ZERO
        } else {
            self.delivered_charge / self.duration()
        }
    }

    /// Mean stack current (the fuel-consumption rate).
    #[must_use]
    pub fn mean_stack_current(&self) -> Amps {
        self.fuel.mean_stack_current()
    }

    /// This run's fuel as a fraction of `baseline`'s (the paper's
    /// normalized-fuel tables). Durations are normalized out so runs of
    /// slightly different wall-clock lengths compare fairly.
    ///
    /// # Panics
    ///
    /// Panics if either run has zero duration or the baseline consumed no
    /// fuel.
    #[must_use]
    #[track_caller]
    pub fn normalized_fuel(&self, baseline: &Self) -> f64 {
        assert!(
            !self.duration().is_zero() && !baseline.duration().is_zero(),
            "cannot normalize zero-duration runs"
        );
        let own_rate = self.fuel.total().amp_seconds() / self.duration().seconds();
        let base_rate = baseline.fuel.total().amp_seconds() / baseline.duration().seconds();
        assert!(base_rate > 0.0, "baseline consumed no fuel");
        own_rate / base_rate
    }

    /// Lifetime extension over `other` for the same fuel tank: lifetime is
    /// inversely proportional to the fuel rate, so this is
    /// `other_rate / own_rate` (the paper's 1.32× for FC-DPM vs
    /// ASAP-DPM).
    ///
    /// # Panics
    ///
    /// Panics if either run has zero duration or this run consumed no
    /// fuel.
    #[must_use]
    #[track_caller]
    pub fn lifetime_extension_over(&self, other: &Self) -> f64 {
        1.0 / self.normalized_fuel(other)
    }

    /// Fraction of load charge that went unserved.
    #[must_use]
    pub fn brownout_fraction(&self) -> f64 {
        if self.load_charge.is_zero() {
            0.0
        } else {
            self.deficit_charge / self.load_charge
        }
    }

    /// True when the run completed without bleeding or brownouts.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.bled_charge.is_zero() && self.deficit_charge.is_zero()
    }

    /// Folds in the metrics of a run that continued from this one's end
    /// state (the next cycle of a looped trace): every per-run quantity
    /// sums, while the snapshots — `final_soc` and the carried policy's
    /// cumulative `degradations` — take `next`'s value.
    pub fn append(&mut self, next: &Self) {
        // Destructured without `..`, so a new field fails to compile
        // until it is folded here.
        let Self {
            fuel,
            load_charge,
            delivered_charge,
            bled_charge,
            deficit_charge,
            deficit_time,
            sleeps,
            slots,
            task_latency,
            final_soc,
            chunks_stepped,
            chunks_coalesced,
            policy_consultations,
            faults_applied,
            degradations,
            time_in_fallback,
            fault_deficit_time,
        } = next;
        self.fuel.merge(fuel);
        self.load_charge += *load_charge;
        self.delivered_charge += *delivered_charge;
        self.bled_charge += *bled_charge;
        self.deficit_charge += *deficit_charge;
        self.deficit_time += *deficit_time;
        self.sleeps += sleeps;
        self.slots += slots;
        self.task_latency += *task_latency;
        self.final_soc = *final_soc;
        self.chunks_stepped += chunks_stepped;
        self.chunks_coalesced += chunks_coalesced;
        self.policy_consultations += policy_consultations;
        self.faults_applied += faults_applied;
        self.degradations = *degradations;
        self.time_in_fallback += *time_in_fallback;
        self.fault_deficit_time += *fault_deficit_time;
    }

    /// A copy with the work counters (`chunks_stepped`,
    /// `chunks_coalesced`, `policy_consultations`) zeroed.
    ///
    /// The counters describe *how* a run was integrated, not *what* it
    /// computed, so they legitimately differ between the coalesced and
    /// per-chunk paths. Comparisons that care about the physics — the
    /// cross-path determinism suite, for one — compare
    /// `a.without_work_counters()` against `b.without_work_counters()`.
    #[must_use]
    pub fn without_work_counters(&self) -> Self {
        Self {
            chunks_stepped: 0,
            chunks_coalesced: 0,
            policy_consultations: 0,
            ..self.clone()
        }
    }
}

impl fmt::Display for SimMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fuel {:.1} over {:.1} min (mean I_fc {:.4})",
            self.fuel.total(),
            self.duration().minutes(),
            self.mean_stack_current()
        )?;
        writeln!(
            f,
            "delivered {:.1}, load {:.1}, bled {:.2}, deficit {:.3}",
            self.delivered_charge, self.load_charge, self.bled_charge, self.deficit_charge
        )?;
        write!(
            f,
            "slots {}, sleeps {}, task latency {:.1}, final SoC {:.2}",
            self.slots, self.sleeps, self.task_latency, self.final_soc
        )?;
        if self.faults_applied > 0 {
            write!(
                f,
                "\nfaults {}, degradations {}, fallback {:.1}, deficit under fault {:.3}",
                self.faults_applied,
                self.degradations,
                self.time_in_fallback,
                self.fault_deficit_time
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics_with(fuel_amps: f64, secs: f64) -> SimMetrics {
        let mut m = SimMetrics::new();
        m.fuel.consume(Amps::new(fuel_amps), Seconds::new(secs));
        m
    }

    #[test]
    fn normalization_is_rate_based() {
        let a = metrics_with(0.4, 100.0);
        let b = metrics_with(1.3, 200.0); // longer run, higher rate
        let norm = a.normalized_fuel(&b);
        assert!((norm - 0.4 / 1.3).abs() < 1e-12);
    }

    #[test]
    fn lifetime_extension_is_inverse() {
        let fc = metrics_with(0.308, 100.0);
        let asap = metrics_with(0.408, 100.0);
        let ext = fc.lifetime_extension_over(&asap);
        assert!((ext - 0.408 / 0.308).abs() < 1e-12);
        assert!((ext - 1.32).abs() < 0.01); // the paper's headline
    }

    #[test]
    fn brownout_fraction() {
        let mut m = metrics_with(1.0, 10.0);
        m.load_charge = Charge::new(10.0);
        m.deficit_charge = Charge::new(1.0);
        assert!((m.brownout_fraction() - 0.1).abs() < 1e-12);
        assert!(!m.is_clean());
        assert_eq!(SimMetrics::new().brownout_fraction(), 0.0);
    }

    #[test]
    fn mean_currents() {
        let mut m = metrics_with(0.5, 10.0);
        m.delivered_charge = Charge::new(6.0);
        assert!((m.mean_output_current().amps() - 0.6).abs() < 1e-12);
        assert!((m.mean_stack_current().amps() - 0.5).abs() < 1e-12);
        assert_eq!(SimMetrics::new().mean_output_current(), Amps::ZERO);
    }

    #[test]
    fn display_renders_summary() {
        let mut m = metrics_with(0.4, 60.0);
        m.slots = 3;
        m.sleeps = 2;
        let text = m.to_string();
        assert!(text.contains("mean I_fc 0.4000"));
        assert!(text.contains("slots 3, sleeps 2"));
    }

    #[test]
    #[should_panic(expected = "zero-duration")]
    fn zero_duration_normalization_panics() {
        let a = SimMetrics::new();
        let b = metrics_with(1.0, 1.0);
        let _ = a.normalized_fuel(&b);
    }

    #[test]
    fn serde_round_trip_preserves_all_fields() {
        use serde::{Deserialize, Serialize};
        let mut m = metrics_with(0.4, 60.0);
        m.load_charge = Charge::new(20.0);
        m.delivered_charge = Charge::new(24.0);
        m.bled_charge = Charge::new(1.0);
        m.deficit_charge = Charge::new(0.5);
        m.deficit_time = Seconds::new(1.25);
        m.sleeps = 2;
        m.slots = 3;
        m.task_latency = Seconds::new(4.5);
        m.final_soc = Charge::new(3.0);
        m.chunks_stepped = 120;
        m.chunks_coalesced = 480;
        m.policy_consultations = 126;
        m.faults_applied = 3;
        m.degradations = 2;
        m.time_in_fallback = Seconds::new(42.0);
        m.fault_deficit_time = Seconds::new(0.5);
        let back = SimMetrics::from_value(&m.to_value()).expect("round trip");
        assert_eq!(m, back);
    }

    #[test]
    fn without_work_counters_zeroes_only_the_counters() {
        let mut m = metrics_with(0.4, 60.0);
        m.deficit_time = Seconds::new(0.75);
        m.chunks_stepped = 10;
        m.chunks_coalesced = 20;
        m.policy_consultations = 11;
        let stripped = m.without_work_counters();
        assert_eq!(stripped.chunks_stepped, 0);
        assert_eq!(stripped.chunks_coalesced, 0);
        assert_eq!(stripped.policy_consultations, 0);
        assert_eq!(stripped.deficit_time, m.deficit_time);
        assert_eq!(stripped.fuel, m.fuel);
    }
}
