//! Slot-free averaging policy for unstructured load profiles.

use fcdpm_units::{Amps, Charge, CurrentRange, Seconds};

use super::{FcOutputPolicy, PolicyPhase, SegmentPlan, SlotStart};

/// The EWMA time base in seconds: `alpha` is the smoothing weight per
/// this much wall-clock time, so segment-scoped updates decay by
/// `(1 − alpha)^(duration / EWMA_CHUNK_S)` regardless of the simulator's
/// control step.
const EWMA_CHUNK_S: f64 = 0.5;

/// FC-DPM's averaging idea without the slot structure: an exponentially
/// weighted moving average tracks the load, and a proportional feedback
/// term steers the storage back to its reference level.
///
/// ```text
/// I_F = clamp( EWMA(load) + gain · (C_ref − SoC) )
/// ```
///
/// This is the policy for workloads that have no idle/active slot
/// decomposition — in particular the *merged multi-device* profiles of
/// [`fcdpm_workload::LoadProfile`], where per-device slot boundaries
/// interleave arbitrarily. With a long window it approaches the global
/// averaged optimum; the feedback keeps the quantization between supply
/// and demand from walking the buffer into a rail.
///
/// `alpha` is the smoothing weight per 0.5 s of wall-clock time (the
/// reference control chunk). The policy plans whole segments at once:
/// `begin_segment` advances the EWMA a single duration-weighted step —
/// decaying the old estimate by `(1 − alpha)^(duration / 0.5 s)` — and
/// holds the resulting setpoint (with the feedback term frozen at the
/// segment-entry state of charge) for the whole segment, so the output
/// is independent of the simulator's control step.
///
/// # Examples
///
/// ```
/// use fcdpm_core::policy::{FcOutputPolicy, PolicyPhase, WindowedAverage};
/// use fcdpm_units::{Amps, Charge, CurrentRange, Seconds};
///
/// let mut p = WindowedAverage::new(CurrentRange::dac07(), 0.02, 0.05);
/// // First sight latches the reference SoC and seeds the EWMA.
/// let plan = p.begin_segment(PolicyPhase::Active, Amps::new(0.5), Charge::new(3.0), Seconds::new(1.0));
/// assert_eq!(plan.current(), Amps::new(0.5));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WindowedAverage {
    range: CurrentRange,
    /// EWMA weight per 0.5 s, in `(0, 1]`.
    alpha: f64,
    /// Feedback gain in amps per ampere-second of SoC error.
    gain: f64,
    ewma: Option<f64>,
    c_ref: Option<Charge>,
}

impl WindowedAverage {
    /// Creates the policy.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is not in `(0, 1]` or `gain` is negative.
    #[must_use]
    #[track_caller]
    pub fn new(range: CurrentRange, alpha: f64, gain: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        assert!(gain >= 0.0 && gain.is_finite(), "gain must be non-negative");
        Self {
            range,
            alpha,
            gain,
            ewma: None,
            c_ref: None,
        }
    }

    /// The paper-range configuration with a ~25 s effective window at the
    /// default 0.5 s control chunk and a gentle SoC feedback.
    #[must_use]
    pub fn dac07() -> Self {
        Self::new(CurrentRange::dac07(), 0.02, 0.05)
    }

    /// The current EWMA estimate of the load, if warm.
    #[must_use]
    pub fn load_estimate(&self) -> Option<Amps> {
        self.ewma.map(Amps::new)
    }
}

impl FcOutputPolicy for WindowedAverage {
    fn name(&self) -> &str {
        "Windowed-Average"
    }

    fn begin_slot(&mut self, start: &SlotStart) {
        self.c_ref.get_or_insert(start.soc);
    }

    fn begin_segment(
        &mut self,
        _phase: PolicyPhase,
        load: Amps,
        soc: Charge,
        remaining: Seconds,
    ) -> SegmentPlan {
        let c_ref = *self.c_ref.get_or_insert(soc);
        // One duration-weighted EWMA step: the closed form of
        // `duration / EWMA_CHUNK_S` successive 0.5 s updates against the
        // segment's constant load. Exact under cross-segment merging:
        // decaying by d1 then d2 equals decaying by d1 + d2.
        let ewma = match self.ewma {
            Some(prev) => {
                let decay = (1.0 - self.alpha).powf(remaining.seconds() / EWMA_CHUNK_S);
                load.amps() + (prev - load.amps()) * decay
            }
            None => load.amps(),
        };
        self.ewma = Some(ewma);
        let feedback = self.gain * (c_ref - soc).amp_seconds();
        SegmentPlan::Steady(self.range.clamp(Amps::new((ewma + feedback).max(0.0))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> WindowedAverage {
        WindowedAverage::dac07()
    }

    /// The planned setpoint for a `secs`-long active segment.
    fn current(p: &mut WindowedAverage, load: f64, soc: f64, secs: f64) -> Amps {
        p.begin_segment(
            PolicyPhase::Active,
            Amps::new(load),
            Charge::new(soc),
            Seconds::new(secs),
        )
        .current()
    }

    #[test]
    fn seeds_from_first_load() {
        let mut p = policy();
        assert_eq!(current(&mut p, 0.4, 3.0, 0.5), Amps::new(0.4));
        assert_eq!(p.load_estimate(), Some(Amps::new(0.4)));
    }

    #[test]
    fn smooths_load_steps() {
        let mut p = policy();
        current(&mut p, 0.2, 3.0, 0.5);
        // A short load step barely moves the output at alpha = 0.02.
        let i = current(&mut p, 1.2, 3.0, 0.5);
        assert!(i < Amps::new(0.25), "output jumped: {i}");
        // After a long stretch it converges to the new level.
        let i = current(&mut p, 1.2, 3.0, 300.0);
        assert!((i.amps() - 1.2).abs() < 1e-3);
    }

    #[test]
    fn feedback_steers_soc_back() {
        let mut p = policy();
        // Latch reference at 3 A·s.
        current(&mut p, 0.5, 3.0, 0.5);
        let depleted = current(&mut p, 0.5, 1.0, 0.5);
        let full = current(&mut p, 0.5, 5.0, 0.5);
        assert!(depleted > full, "feedback must push toward the reference");
    }

    #[test]
    fn output_always_in_range() {
        let mut p = policy();
        for (load, soc) in [(0.0, 0.0), (5.0, 0.0), (0.0, 100.0), (2.0, 50.0)] {
            let i = current(&mut p, load, soc, 0.5);
            assert!(CurrentRange::dac07().contains(i), "{i} out of range");
        }
    }

    #[test]
    #[should_panic(expected = "alpha must be")]
    fn invalid_alpha_rejected() {
        let _ = WindowedAverage::new(CurrentRange::dac07(), 0.0, 0.1);
    }

    #[test]
    fn segment_plan_matches_chunkwise_ewma() {
        // A segment-long plan must land the EWMA where the equivalent
        // number of 0.5 s updates would.
        let mut planned = policy();
        current(&mut planned, 0.2, 3.0, 0.5);
        current(&mut planned, 1.2, 3.0, 50.0);
        let mut chunked = 0.2;
        for _ in 0..100 {
            chunked += 0.02 * (1.2 - chunked);
        }
        let p = planned.load_estimate().unwrap().amps();
        assert!(
            (p - chunked).abs() < 1e-9,
            "planned {p} vs chunked {chunked}"
        );
    }

    #[test]
    fn segment_plans_are_merge_invariant() {
        // Planning one merged 30 s stretch equals planning 10 s + 20 s
        // back to back at the same load and state of charge.
        let mut merged = policy();
        let mut split = policy();
        for p in [&mut merged, &mut split] {
            current(p, 0.2, 3.0, 5.0);
        }
        let one = current(&mut merged, 0.7, 3.0, 30.0);
        current(&mut split, 0.7, 3.0, 10.0);
        let two = current(&mut split, 0.7, 3.0, 20.0);
        let m = merged.load_estimate().unwrap().amps();
        let s = split.load_estimate().unwrap().amps();
        assert!((m - s).abs() < 1e-12, "merged {m} vs split {s}");
        assert!((one.amps() - two.amps()).abs() < 1e-12);
    }
}
