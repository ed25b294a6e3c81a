//! The canonical seeded fault sweep.
//!
//! [`fault_sweep`] expands the fixed catalogue of [`FaultPreset`] fault
//! schedules — fuel starvation, FC efficiency fade, storage
//! degradation, predictor loss, and all of them combined — against the
//! Experiment-1 camcorder trace, running each schedule under the
//! unwrapped FC-DPM planner, the
//! [`ResilientPolicy`](fcdpm_core::policy::ResilientPolicy)-wrapped
//! planner, and the Conv-DPM worst-case baseline. A no-fault control
//! pair (no schedule vs an empty schedule) rides along so manifests
//! double as a bit-identity regression check.
//!
//! Everything is keyed by one seed, so two runs of the same sweep are
//! byte-identical under
//! [`RunManifest::deterministic_json`](crate::RunManifest::deterministic_json)
//! regardless of worker count.

use fcdpm_faults::FaultSchedule;

use crate::spec::{FaultPreset, JobSpec, PolicySpec, WorkloadSpec};

/// [`fault_sweep`] with a human-facing row label per job
/// (`"<schedule>/<variant>"`), for report tables.
#[must_use]
pub fn fault_sweep_labeled(seed: u64, quick: bool) -> Vec<(String, JobSpec)> {
    let mut jobs = Vec::new();

    let base = || JobSpec::new(PolicySpec::FcDpm, WorkloadSpec::Experiment1(seed));
    jobs.push(("control/none".to_owned(), base()));
    let mut control = base();
    control.faults = Some(FaultSchedule::none(seed));
    jobs.push(("control/empty".to_owned(), control));

    for preset in FaultPreset::CANONICAL {
        if quick && !matches!(preset, FaultPreset::Starvation | FaultPreset::Combined) {
            continue;
        }
        let Some(schedule) = preset.schedule(seed) else {
            continue;
        };
        // The row label is the preset's name in lower case.
        let label = format!("{preset:?}").to_lowercase();
        let mut plain = base();
        plain.faults = Some(schedule.clone());
        jobs.push((format!("{label}/fcdpm"), plain));

        let mut wrapped = base();
        wrapped.faults = Some(schedule.clone());
        wrapped.resilient = Some(true);
        jobs.push((format!("{label}/resilient"), wrapped));

        let mut conv = JobSpec::new(PolicySpec::Conv, WorkloadSpec::Experiment1(seed));
        conv.faults = Some(schedule);
        jobs.push((format!("{label}/conv"), conv));
    }
    jobs
}

/// Expands the canonical fault sweep into concrete jobs.
///
/// Order is fixed: the no-fault control pair (FC-DPM with no schedule,
/// then with an empty schedule — their metrics must be bit-identical),
/// then for each canonical schedule the unwrapped FC-DPM planner, the
/// resilient-wrapped planner, and the Conv-DPM baseline. `quick` keeps
/// only the starvation and combined schedules, for CI smoke runs.
#[must_use]
pub fn fault_sweep(seed: u64, quick: bool) -> Vec<JobSpec> {
    fault_sweep_labeled(seed, quick)
        .into_iter()
        .map(|(_, job)| job)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEED: u64 = 0xDAC0_2007;

    /// The Experiment-1 trace runs ~28 simulated minutes, so every
    /// canonical window must sit inside `[0, 1680] s` to matter.
    const TRACE_END_S: f64 = 1680.0;

    #[test]
    fn canonical_schedules_validate_and_fit_the_trace() {
        for preset in FaultPreset::CANONICAL {
            let label = format!("{preset:?}");
            let schedule = preset
                .schedule(SEED)
                .expect("canonical presets inject faults");
            schedule.validate().unwrap_or_else(|e| {
                panic!("canonical schedule `{label}` is invalid: {e}");
            });
            assert!(!schedule.is_empty(), "schedule `{label}` has no events");
            for ev in &schedule.events {
                assert!(
                    ev.at_s < TRACE_END_S,
                    "schedule `{label}` event at {} s misses the trace",
                    ev.at_s
                );
            }
        }
    }

    #[test]
    fn sweep_shape_is_fixed() {
        let full = fault_sweep(SEED, false);
        assert_eq!(full.len(), 2 + 5 * 3);
        let quick = fault_sweep(SEED, true);
        assert_eq!(quick.len(), 2 + 2 * 3);
        // The control pair leads with no-schedule then empty-schedule.
        assert_eq!(full[0].faults, None);
        assert_eq!(full[1].faults, Some(FaultSchedule::none(SEED)));
        // Every scheduled triple is (plain, resilient, conv).
        for triple in full[2..].chunks(3) {
            assert_eq!(triple[0].policy, PolicySpec::FcDpm);
            assert_eq!(triple[0].resilient, None);
            assert_eq!(triple[1].policy, PolicySpec::FcDpm);
            assert_eq!(triple[1].resilient, Some(true));
            assert_eq!(triple[2].policy, PolicySpec::Conv);
            assert_eq!(triple[0].faults, triple[2].faults);
        }
    }

    #[test]
    fn sweep_is_seed_deterministic() {
        assert_eq!(fault_sweep(SEED, false), fault_sweep(SEED, false));
        assert_ne!(fault_sweep(SEED, false), fault_sweep(1, false));
    }
}
