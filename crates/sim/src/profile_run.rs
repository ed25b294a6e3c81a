//! Simulation over unstructured load profiles.
//!
//! [`HybridSimulator::run_profile`] drives an FC output policy over a
//! piecewise-constant [`LoadProfile`] with no slot structure — the
//! representation multi-device compositions produce. Each profile point
//! is one constant-load span integrated by the same plan-driven
//! integrator as [`HybridSimulator::run`]: the policy plans the point
//! through `begin_segment`, and the plan integrates in closed form
//! (or in control chunks under
//! [`without_coalescing`](HybridSimulator::without_coalescing) and
//! inside a recorder's horizon). Policies that need slot boundaries
//! (FC-DPM) are not meaningful here; the load-following and
//! windowed-averaging policies are.

use fcdpm_core::policy::{FcOutputPolicy, PolicyPhase};
use fcdpm_storage::ChargeStorage;
use fcdpm_units::Seconds;
use fcdpm_workload::LoadProfile;

use crate::{HybridSimulator, ProfileRecorder, SimError, SimMetrics, SimResult};

impl HybridSimulator<'_> {
    /// Runs `policy` over an unstructured load profile.
    ///
    /// Every point is one [`PolicyPhase::Active`] span (there is no slot
    /// structure to distinguish phases), planned and integrated exactly
    /// as a stretch of [`run`](Self::run). Fault schedules do not apply.
    ///
    /// # Errors
    ///
    /// Propagates fuel-model errors.
    pub fn run_profile(
        &self,
        profile: &LoadProfile,
        policy: &mut dyn FcOutputPolicy,
        storage: &mut dyn ChargeStorage,
    ) -> Result<SimResult, SimError> {
        self.run_profile_internal(profile, policy, storage, None)
    }

    /// [`run_profile`](Self::run_profile) with current-profile recording.
    ///
    /// # Errors
    ///
    /// Propagates fuel-model errors.
    pub fn run_profile_recorded(
        &self,
        profile: &LoadProfile,
        policy: &mut dyn FcOutputPolicy,
        storage: &mut dyn ChargeStorage,
        recorder: &mut ProfileRecorder,
    ) -> Result<SimResult, SimError> {
        self.run_profile_internal(profile, policy, storage, Some(recorder))
    }

    fn run_profile_internal(
        &self,
        profile: &LoadProfile,
        policy: &mut dyn FcOutputPolicy,
        storage: &mut dyn ChargeStorage,
        mut recorder: Option<&mut ProfileRecorder>,
    ) -> Result<SimResult, SimError> {
        let mut metrics = SimMetrics::new();
        let mut time = Seconds::ZERO;
        for point in profile.points() {
            if point.duration <= Seconds::ZERO {
                continue;
            }
            self.integrate_span(
                PolicyPhase::Active,
                point.current,
                point.duration,
                &mut time,
                policy,
                storage,
                &mut metrics,
                None,
                &mut recorder,
            )?;
        }
        metrics.final_soc = storage.soc();
        Ok(SimResult { metrics })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcdpm_core::policy::{AsapDpm, ConvDpm, WindowedAverage};
    use fcdpm_device::presets;
    use fcdpm_storage::IdealStorage;
    use fcdpm_units::{Amps, Charge};
    use fcdpm_workload::LoadPoint;

    fn square_wave(cycles: usize) -> LoadProfile {
        let mut points = Vec::new();
        for _ in 0..cycles {
            points.push(LoadPoint {
                duration: Seconds::new(10.0),
                current: Amps::new(0.2),
            });
            points.push(LoadPoint {
                duration: Seconds::new(10.0),
                current: Amps::new(1.0),
            });
        }
        LoadProfile::new("square", points)
    }

    #[test]
    fn conv_fuel_matches_closed_form_on_profile() {
        let spec = presets::dvd_camcorder();
        let sim = HybridSimulator::dac07(&spec);
        let profile = square_wave(5);
        let mut storage = IdealStorage::new(Charge::new(1e6), Charge::new(5e5));
        let m = sim
            .run_profile(&profile, &mut ConvDpm::dac07(), &mut storage)
            .unwrap()
            .metrics;
        let expect = 1.3061 * profile.total_duration().seconds();
        assert!((m.fuel.total().amp_seconds() - expect).abs() < 0.1);
    }

    #[test]
    fn windowed_average_beats_following_on_square_wave() {
        let spec = presets::dvd_camcorder();
        let sim = HybridSimulator::dac07(&spec);
        let profile = square_wave(30);
        let cap = Charge::new(30.0);
        let run = |policy: &mut dyn FcOutputPolicy| {
            let mut storage = IdealStorage::new(cap, cap * 0.5);
            sim.run_profile(&profile, policy, &mut storage)
                .unwrap()
                .metrics
        };
        let asap = run(&mut AsapDpm::dac07(cap));
        let windowed = run(&mut WindowedAverage::dac07());
        assert!(
            windowed.fuel.total() < asap.fuel.total(),
            "windowed {} ≥ asap {}",
            windowed.fuel.total(),
            asap.fuel.total()
        );
        // And no brownouts with an adequate buffer.
        assert!(windowed.deficit_charge.is_zero());
    }

    #[test]
    fn profile_run_conserves_charge() {
        let spec = presets::dvd_camcorder();
        let sim = HybridSimulator::dac07(&spec);
        let profile = square_wave(10);
        let cap = Charge::new(30.0);
        let mut storage = IdealStorage::new(cap, cap * 0.5);
        let initial = storage.soc();
        let mut policy = WindowedAverage::dac07();
        let m = sim
            .run_profile(&profile, &mut policy, &mut storage)
            .unwrap()
            .metrics;
        let lhs = m.delivered_charge.amp_seconds();
        let rhs = m.load_charge.amp_seconds()
            + (m.final_soc - initial).amp_seconds()
            + m.bled_charge.amp_seconds()
            - m.deficit_charge.amp_seconds();
        assert!((lhs - rhs).abs() < 1e-6);
    }

    #[test]
    fn residual_float_chunk_is_absorbed() {
        // 0.7 s at a 0.1 s step on the chunked oracle: `remaining -= dt`
        // leaves a ~2.8e-17 s residual that used to become an eighth
        // ghost chunk. The epsilon floor folds it into the seventh.
        use fcdpm_fuelcell::LinearEfficiency;
        use fcdpm_units::CurrentRange;
        let spec = presets::dvd_camcorder();
        let sim = HybridSimulator::new(
            &spec,
            Box::new(LinearEfficiency::dac07()),
            CurrentRange::dac07(),
            Seconds::new(0.1),
        )
        .unwrap()
        .without_coalescing();
        let profile = LoadProfile::new(
            "residual",
            vec![LoadPoint {
                duration: Seconds::new(0.7),
                current: Amps::new(0.4),
            }],
        );
        let cap = Charge::new(30.0);
        let mut storage = IdealStorage::new(cap, cap * 0.5);
        let mut policy = AsapDpm::dac07(cap);
        let m = sim
            .run_profile(&profile, &mut policy, &mut storage)
            .unwrap()
            .metrics;
        assert_eq!(m.chunks_stepped, 7, "ghost residual chunk leaked");
        assert_eq!(m.policy_consultations, 1);
        assert!((m.duration().seconds() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn profile_fast_path_counters() {
        // Ten 10 s points, each planned once and integrated in one
        // closed-form update of twenty 0.5 s chunks' worth of work — for
        // the steady planners and for ASAP-DPM's crossing plans alike.
        let spec = presets::dvd_camcorder();
        let sim = HybridSimulator::dac07(&spec);
        let profile = square_wave(5);
        let cap = Charge::new(1e6);
        let policies: [&mut dyn FcOutputPolicy; 3] = [
            &mut ConvDpm::dac07(),
            &mut AsapDpm::dac07(cap),
            &mut WindowedAverage::dac07(),
        ];
        for policy in policies {
            let mut storage = IdealStorage::new(cap, cap * 0.5);
            let m = sim
                .run_profile(&profile, policy, &mut storage)
                .unwrap()
                .metrics;
            assert_eq!(m.chunks_stepped, 0, "{}", policy.name());
            assert_eq!(m.chunks_coalesced, 200, "{}", policy.name());
            assert_eq!(m.policy_consultations, 10, "{}", policy.name());
        }
    }

    #[test]
    fn recorded_profile_run_samples() {
        let spec = presets::dvd_camcorder();
        let sim = HybridSimulator::dac07(&spec);
        let profile = square_wave(2);
        let mut storage = IdealStorage::new(Charge::new(30.0), Charge::new(15.0));
        let mut rec = ProfileRecorder::new(Seconds::new(1.0), Seconds::new(20.0));
        sim.run_profile_recorded(&profile, &mut ConvDpm::dac07(), &mut storage, &mut rec)
            .unwrap();
        assert_eq!(rec.samples().len(), 21);
    }
}
