//! Static feasibility checks for runner job grids.
//!
//! The batch runner executes `JobGrid` JSON files (see
//! `examples/batch_paper_grid.json`), and the fleet engine executes
//! intensional `GridSpec` files (see `examples/grid_fleet.json`). Some
//! spec mistakes only explode at run time — a `Constant` setpoint
//! outside the stack's load-following range, a β that makes the
//! Equation 4 denominator non-positive, a storage buffer too small to
//! ride through one sleep transition. This pass validates the committed
//! grid files against the paper manifest so those mistakes fail in CI,
//! before any simulation runs.
//!
//! The two formats share the policy/capacity checks; a document with a
//! `seeds` field is a `GridSpec` (workloads are seedless families, the
//! optional axes are preset lists), anything else with `policies` +
//! `workloads` is a legacy `JobGrid`.

use serde_json::Value;

use crate::{Finding, Rule};

/// Paper parameters the feasibility checks compare against, extracted
/// from `paper-constants.toml` by the caller. When the manifest is
/// absent the range-dependent checks are skipped (structural checks
/// still run).
#[derive(Debug, Clone, Copy)]
pub struct PaperParams {
    /// Load-following minimum, amps.
    pub i_f_min: f64,
    /// Load-following maximum, amps.
    pub i_f_max: f64,
    /// Efficiency intercept α (Equation 4).
    pub alpha: f64,
    /// Worst-case charge drawn from storage across one sleep
    /// transition, in mA·min, over all device presets in the manifest.
    pub min_capacity_mamin: f64,
}

/// Whether a parsed JSON document looks like a `JobGrid` (the discovery
/// predicate for `examples/*.json`).
#[must_use]
pub fn looks_like_grid(doc: &Value) -> bool {
    doc.get("policies").is_some() && doc.get("workloads").is_some()
}

/// Validates one grid document. `rel_path` anchors the findings; the
/// JSON reader does not track lines, so everything reports at line 1
/// of the file.
#[must_use]
pub fn check(rel_path: &str, doc: &Value, params: Option<&PaperParams>) -> Vec<Finding> {
    let mut ctx = Ctx {
        rel_path,
        params,
        findings: Vec::new(),
    };
    if doc.get("seeds").is_some() {
        ctx.check_gridspec(doc);
        return ctx.findings;
    }
    ctx.check_axis_nonempty(doc, "policies");
    ctx.check_axis_nonempty(doc, "workloads");
    if let Some(Value::Seq(policies)) = doc.get("policies") {
        for policy in policies {
            ctx.check_policy(policy, "policies");
        }
    }
    if let Some(Value::Seq(workloads)) = doc.get("workloads") {
        for workload in workloads {
            ctx.check_workload(workload);
        }
    }
    if let Some(Value::Seq(betas)) = doc.get("betas") {
        for beta in betas {
            ctx.check_beta(beta.as_f64(), "betas");
        }
    }
    if let Some(Value::Seq(capacities)) = doc.get("capacities_mamin") {
        for capacity in capacities {
            ctx.check_capacity(capacity.as_f64(), "capacities_mamin");
        }
    }
    if let Some(Value::Seq(effs)) = doc.get("buffer_path_efficiencies") {
        for eff in effs {
            ctx.check_path_efficiency(eff.as_f64(), "buffer_path_efficiencies");
        }
    }
    if let Some(Value::Seq(jobs)) = doc.get("extra_jobs") {
        for (index, job) in jobs.iter().enumerate() {
            ctx.check_extra_job(index, job);
        }
    }
    ctx.findings
}

struct Ctx<'a> {
    rel_path: &'a str,
    params: Option<&'a PaperParams>,
    findings: Vec<Finding>,
}

impl Ctx<'_> {
    fn report(&mut self, message: String) {
        self.findings.push(Finding {
            rule: Rule::GridFeasibility.id(),
            path: self.rel_path.to_owned(),
            line: 1,
            message,
        });
    }

    /// Validates an intensional `GridSpec` (the fleet-engine format):
    /// a seed axis, seedless workload families, policy specs, and
    /// optional fault-preset / capacity / resilience axes.
    fn check_gridspec(&mut self, doc: &Value) {
        match doc.get("seeds") {
            Some(Value::Map(fields)) if fields.len() == 1 => {
                let (variant, payload) = &fields[0];
                match variant.as_str() {
                    "List" => {
                        if !matches!(payload, Value::Seq(seeds) if !seeds.is_empty()) {
                            self.report("seeds: List needs a non-empty array of seeds".to_owned());
                        }
                    }
                    "Range" => {
                        if !payload
                            .get("count")
                            .and_then(Value::as_f64)
                            .is_some_and(|c| c >= 1.0)
                        {
                            self.report("seeds: Range needs a `count` of at least 1".to_owned());
                        }
                        if payload.get("start").and_then(Value::as_f64).is_none() {
                            self.report("seeds: Range needs a numeric `start`".to_owned());
                        }
                    }
                    other => self.report(format!("seeds: unknown seed axis `{other}`")),
                }
            }
            _ => self.report("seeds: must be a `List` or `Range` axis object".to_owned()),
        }
        self.check_axis_nonempty(doc, "policies");
        self.check_axis_nonempty(doc, "workloads");
        if let Some(Value::Seq(policies)) = doc.get("policies") {
            for policy in policies {
                self.check_policy(policy, "policies");
            }
        }
        if let Some(Value::Seq(workloads)) = doc.get("workloads") {
            for workload in workloads {
                if !matches!(
                    workload,
                    Value::Str(name)
                        if matches!(name.as_str(), "Experiment1" | "Experiment2" | "MultiDevice")
                ) {
                    self.report(format!(
                        "workloads: unrecognized workload family {}",
                        payload_text(workload)
                    ));
                }
            }
        }
        if let Some(faults) = doc.get("faults").filter(|f| **f != Value::Null) {
            let Value::Seq(presets) = faults else {
                self.report("faults: must be an array of preset names".to_owned());
                return;
            };
            for preset in presets {
                if !matches!(
                    preset,
                    Value::Str(name) if matches!(
                        name.as_str(),
                        "None" | "Starvation" | "Fade" | "Storage" | "Predictor" | "Combined"
                    )
                ) {
                    self.report(format!(
                        "faults: unknown fault preset {}",
                        payload_text(preset)
                    ));
                }
            }
        }
        if let Some(Value::Seq(capacities)) = doc.get("capacities_mamin") {
            for capacity in capacities {
                self.check_capacity(capacity.as_f64(), "capacities_mamin");
            }
        }
        if let Some(resilient) = doc.get("resilient").filter(|r| **r != Value::Null) {
            let ok = matches!(resilient, Value::Seq(values)
                if values.iter().all(|v| matches!(v, Value::Bool(_))));
            if !ok {
                self.report("resilient: must be an array of booleans".to_owned());
            }
        }
    }

    fn check_axis_nonempty(&mut self, doc: &Value, axis: &str) {
        match doc.get(axis) {
            Some(Value::Seq(items)) if !items.is_empty() => {}
            Some(Value::Seq(_)) => {
                self.report(format!("`{axis}` is empty — the grid expands to zero jobs"));
            }
            _ => self.report(format!("`{axis}` must be a non-empty array")),
        }
    }

    /// A `PolicySpec` in serde's JSON encoding: unit variants are
    /// strings, payload variants are single-key objects.
    fn check_policy(&mut self, policy: &Value, context: &str) {
        match policy {
            Value::Str(name)
                if matches!(name.as_str(), "Conv" | "Asap" | "FcDpm" | "WindowedAverage") => {}
            Value::Map(fields) if fields.len() == 1 => {
                let (variant, payload) = &fields[0];
                match variant.as_str() {
                    "Quantized" => {
                        if !payload.as_f64().is_some_and(|n| n >= 2.0) {
                            self.report(format!(
                                "{context}: Quantized needs at least 2 output levels, got {}",
                                payload_text(payload)
                            ));
                        }
                    }
                    "Constant" => self.check_constant_setpoint(payload.as_f64(), context),
                    other => self.report(format!("{context}: unknown policy variant `{other}`")),
                }
            }
            other => self.report(format!(
                "{context}: unrecognized policy encoding {}",
                payload_text(other)
            )),
        }
    }

    fn check_constant_setpoint(&mut self, setpoint: Option<f64>, context: &str) {
        let Some(x) = setpoint.filter(|x| x.is_finite()) else {
            self.report(format!(
                "{context}: Constant setpoint is not a finite number"
            ));
            return;
        };
        let Some(params) = self.params else { return };
        if x < params.i_f_min || x > params.i_f_max {
            self.report(format!(
                "{context}: Constant setpoint {x} A is outside the load-following range [{}, {}] A",
                params.i_f_min, params.i_f_max
            ));
        }
    }

    fn check_workload(&mut self, workload: &Value) {
        match workload {
            Value::Map(fields)
                if fields.len() == 1
                    && matches!(
                        fields[0].0.as_str(),
                        "Experiment1" | "Experiment2" | "MultiDevice"
                    )
                    && fields[0].1.as_f64().is_some() => {}
            other => self.report(format!(
                "workloads: unrecognized workload encoding {}",
                payload_text(other)
            )),
        }
    }

    /// β must keep the Equation 4 denominator `α − β·I_F` positive over
    /// the whole load-following range.
    fn check_beta(&mut self, beta: Option<f64>, context: &str) {
        let Some(b) = beta.filter(|b| b.is_finite()) else {
            self.report(format!("{context}: β is not a finite number"));
            return;
        };
        if b < 0.0 {
            self.report(format!("{context}: β = {b} is negative"));
            return;
        }
        let Some(params) = self.params else { return };
        if params.alpha - b * params.i_f_max <= 0.0 {
            self.report(format!(
                "{context}: β = {b} makes the efficiency denominator α − β·I_F non-positive at I_F = {} A (α = {}) — the fuel model diverges inside the load-following range",
                params.i_f_max, params.alpha
            ));
        }
    }

    /// Storage must at least cover the worst single sleep transition.
    fn check_capacity(&mut self, capacity: Option<f64>, context: &str) {
        let Some(c) = capacity.filter(|c| c.is_finite() && *c > 0.0) else {
            self.report(format!(
                "{context}: capacity must be a positive finite number"
            ));
            return;
        };
        let Some(params) = self.params else { return };
        if c < params.min_capacity_mamin {
            self.report(format!(
                "{context}: capacity {c} mA·min cannot buffer one sleep transition (worst preset draws {:.1} mA·min)",
                params.min_capacity_mamin
            ));
        }
    }

    fn check_path_efficiency(&mut self, eff: Option<f64>, context: &str) {
        if !eff.is_some_and(|e| e.is_finite() && e > 0.0 && e <= 1.0) {
            self.report(format!(
                "{context}: buffer path efficiency must lie in (0, 1]"
            ));
        }
    }

    /// One-off jobs carry the same axes inline (`inject_panic` is
    /// legitimate here — the pool's fault-isolation tests use it).
    fn check_extra_job(&mut self, index: usize, job: &Value) {
        let context = format!("extra_jobs[{index}]");
        match job.get("policy") {
            Some(policy) => self.check_policy(policy, &context),
            None => self.report(format!("{context}: missing `policy`")),
        }
        match job.get("workload") {
            Some(workload) => self.check_workload(workload),
            None => self.report(format!("{context}: missing `workload`")),
        }
        if let Some(beta) = job.get("beta") {
            if beta != &Value::Null {
                self.check_beta(beta.as_f64(), &context);
            }
        }
        if let Some(capacity) = job.get("capacity_mamin") {
            if capacity != &Value::Null {
                self.check_capacity(capacity.as_f64(), &context);
            }
        }
        if let Some(eff) = job.get("buffer_path_efficiency") {
            if eff != &Value::Null {
                self.check_path_efficiency(eff.as_f64(), &context);
            }
        }
        if let Some(resilient) = job.get("resilient") {
            if !matches!(resilient, Value::Null | Value::Bool(_)) {
                self.report(format!("{context}: `resilient` must be a boolean"));
            }
        }
        if let Some(faults) = job.get("faults") {
            if faults != &Value::Null {
                self.check_faults(faults, &context);
            }
        }
    }

    /// Mirrors `FaultSchedule::validate` statically, plus the one range
    /// check the schedule itself cannot do: a starvation cap below the
    /// load-following minimum leaves the stack no feasible setpoint at
    /// all, so the window becomes a hard outage rather than a fault.
    fn check_faults(&mut self, faults: &Value, context: &str) {
        let context = format!("{context}.faults");
        let Some(Value::Seq(events)) = faults.get("events") else {
            self.report(format!("{context}: schedule needs an `events` array"));
            return;
        };
        for (index, event) in events.iter().enumerate() {
            let context = format!("{context}.events[{index}]");
            let at_s = event.get("at_s").and_then(Value::as_f64);
            if !at_s.is_some_and(|t| t.is_finite() && t >= 0.0) {
                self.report(format!("{context}: `at_s` must be finite and non-negative"));
            }
            let Some(Value::Map(kind)) = event.get("kind") else {
                self.report(format!("{context}: `kind` must be a fault-variant object"));
                continue;
            };
            let [(variant, payload)] = kind.as_slice() else {
                self.report(format!("{context}: `kind` must have exactly one variant"));
                continue;
            };
            let field = |name: &str| payload.get(name).and_then(Value::as_f64);
            let window_holds = |until: Option<f64>| {
                until.is_some_and(|u| u.is_finite() && at_s.is_none_or(|t| u >= t))
            };
            match variant.as_str() {
                "FuelStarvation" => {
                    if !window_holds(field("until_s")) {
                        self.report(format!(
                            "{context}: `until_s` must be finite and at or after `at_s`"
                        ));
                    }
                    let max_a = field("max_a");
                    if !max_a.is_some_and(|x| x.is_finite() && x > 0.0) {
                        self.report(format!("{context}: `max_a` must be finite and positive"));
                    } else if let (Some(x), Some(params)) = (max_a, self.params) {
                        if x < params.i_f_min {
                            self.report(format!(
                                "{context}: starvation cap {x} A sits below the load-following minimum {} A — the window is a hard outage, not a fault",
                                params.i_f_min
                            ));
                        }
                    }
                }
                "EfficiencyFade" => {
                    if !field("alpha_scale").is_some_and(|x| x.is_finite() && x > 0.0 && x <= 1.0) {
                        self.report(format!("{context}: `alpha_scale` must be in (0, 1]"));
                    }
                    if !field("beta_scale").is_some_and(|x| x.is_finite() && x >= 1.0) {
                        self.report(format!("{context}: `beta_scale` must be at least 1"));
                    }
                }
                "StorageFade" => {
                    if !field("capacity_scale")
                        .is_some_and(|x| x.is_finite() && x > 0.0 && x <= 1.0)
                    {
                        self.report(format!("{context}: `capacity_scale` must be in (0, 1]"));
                    }
                }
                "SelfDischarge" => {
                    if !field("leak_a").is_some_and(|x| x.is_finite() && x >= 0.0) {
                        self.report(format!(
                            "{context}: `leak_a` must be finite and non-negative"
                        ));
                    }
                }
                "PredictorDropout" => {
                    if !window_holds(field("until_s")) {
                        self.report(format!(
                            "{context}: `until_s` must be finite and at or after `at_s`"
                        ));
                    }
                }
                "PredictorNoise" => {
                    if !window_holds(field("until_s")) {
                        self.report(format!(
                            "{context}: `until_s` must be finite and at or after `at_s`"
                        ));
                    }
                    if !field("magnitude").is_some_and(|x| (0.0..1.0).contains(&x)) {
                        self.report(format!("{context}: `magnitude` must be in [0, 1)"));
                    }
                }
                other => self.report(format!("{context}: unknown fault kind `{other}`")),
            }
        }
    }
}

fn payload_text(json: &Value) -> String {
    match json {
        Value::Null => "null".to_owned(),
        Value::Bool(b) => b.to_string(),
        Value::Int(n) => n.to_string(),
        Value::UInt(n) => n.to_string(),
        Value::Float(x) => format!("{x:?}"),
        Value::Str(s) => format!("`{s}`"),
        Value::Seq(_) => "an array".to_owned(),
        Value::Map(_) => "an object".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PARAMS: PaperParams = PaperParams {
        i_f_min: 0.1,
        i_f_max: 1.2,
        alpha: 0.45,
        min_capacity_mamin: 40.0,
    };

    fn check_str(text: &str) -> Vec<Finding> {
        let doc: Value = serde_json::from_str(text).expect("fixture parses");
        check("examples/fixture.json", &doc, Some(&PARAMS))
    }

    #[test]
    fn committed_example_grid_shape_is_clean() {
        let got = check_str(
            r#"{"policies": ["Conv", "Asap", "FcDpm", {"Quantized": 4}, {"Constant": 0.6}],
                "workloads": [{"Experiment1": 3670024199}],
                "betas": [0.13, 0.2],
                "capacities_mamin": [50.0, 100.0],
                "buffer_path_efficiencies": [1.0, 0.9],
                "extra_jobs": [{"policy": "FcDpm", "workload": {"Experiment1": 1}, "inject_panic": true}]}"#,
        );
        assert!(got.is_empty(), "{got:#?}");
    }

    #[test]
    fn out_of_range_constant_setpoint_is_rejected() {
        let got =
            check_str(r#"{"policies": [{"Constant": 1.3}], "workloads": [{"Experiment1": 1}]}"#);
        assert_eq!(got.len(), 1, "{got:#?}");
        assert!(got[0].message.contains("load-following range"));
        assert!(got[0].message.contains("1.3"));
    }

    #[test]
    fn degenerate_quantized_and_empty_axes_are_rejected() {
        let got = check_str(r#"{"policies": [{"Quantized": 1}], "workloads": []}"#);
        assert_eq!(got.len(), 2, "{got:#?}");
        assert!(got.iter().any(|f| f.message.contains("zero jobs")));
        assert!(got.iter().any(|f| f.message.contains("at least 2")));
    }

    #[test]
    fn divergent_beta_and_undersized_capacity_are_rejected() {
        let got = check_str(
            r#"{"policies": ["Conv"], "workloads": [{"Experiment2": 1}],
                "betas": [0.4], "capacities_mamin": [10.0]}"#,
        );
        assert_eq!(got.len(), 2, "{got:#?}");
        assert!(got.iter().any(|f| f.message.contains("non-positive")));
        assert!(got.iter().any(|f| f.message.contains("sleep transition")));
    }

    #[test]
    fn extra_job_axes_are_checked_inline() {
        let got = check_str(
            r#"{"policies": ["Conv"], "workloads": [{"Experiment1": 1}],
                "extra_jobs": [{"policy": {"Constant": 0.05}, "workload": {"Experiment1": 1},
                                "buffer_path_efficiency": 1.5}]}"#,
        );
        assert_eq!(got.len(), 2, "{got:#?}");
        assert!(got
            .iter()
            .all(|f| f.message.contains("extra_jobs[0]") || f.message.contains("(0, 1]")));
    }

    #[test]
    fn well_formed_fault_schedule_is_clean() {
        let got = check_str(
            r#"{"policies": ["Conv"], "workloads": [{"Experiment1": 1}],
                "extra_jobs": [{"policy": "FcDpm", "workload": {"Experiment1": 1},
                                "resilient": true,
                                "faults": {"seed": 1, "events": [
                                  {"at_s": 200.0, "kind": {"FuelStarvation": {"until_s": 740.0, "max_a": 0.47}}},
                                  {"at_s": 400.0, "kind": {"StorageFade": {"capacity_scale": 0.6}}},
                                  {"at_s": 900.0, "kind": {"PredictorNoise": {"until_s": 1300.0, "magnitude": 0.3}}}]}}]}"#,
        );
        assert!(got.is_empty(), "{got:#?}");
    }

    #[test]
    fn broken_fault_schedules_are_rejected() {
        let got = check_str(
            r#"{"policies": ["Conv"], "workloads": [{"Experiment1": 1}],
                "extra_jobs": [{"policy": "FcDpm", "workload": {"Experiment1": 1},
                                "resilient": 7,
                                "faults": {"seed": 1, "events": [
                                  {"at_s": -5.0, "kind": {"FuelStarvation": {"until_s": 740.0, "max_a": 0.05}}},
                                  {"at_s": 10.0, "kind": {"EfficiencyFade": {"alpha_scale": 1.5, "beta_scale": 0.5}}},
                                  {"at_s": 20.0, "kind": {"Meteor": {}}}]}}]}"#,
        );
        assert!(
            got.iter().any(|f| f.message.contains("`resilient`")),
            "{got:#?}"
        );
        assert!(got.iter().any(|f| f.message.contains("`at_s`")), "{got:#?}");
        assert!(
            got.iter().any(|f| f.message.contains("hard outage")),
            "{got:#?}"
        );
        assert!(
            got.iter().any(|f| f.message.contains("alpha_scale")),
            "{got:#?}"
        );
        assert!(
            got.iter().any(|f| f.message.contains("beta_scale")),
            "{got:#?}"
        );
        assert!(
            got.iter()
                .any(|f| f.message.contains("unknown fault kind `Meteor`")),
            "{got:#?}"
        );
    }

    #[test]
    fn fault_schedule_without_events_is_rejected() {
        let got = check_str(
            r#"{"policies": ["Conv"], "workloads": [{"Experiment1": 1}],
                "extra_jobs": [{"policy": "FcDpm", "workload": {"Experiment1": 1},
                                "faults": {"seed": 1}}]}"#,
        );
        assert_eq!(got.len(), 1, "{got:#?}");
        assert!(got[0].message.contains("`events` array"));
    }

    #[test]
    fn well_formed_gridspec_is_clean() {
        let got = check_str(
            r#"{"name": "fleet",
                "seeds": {"Range": {"start": 3670024199, "count": 50}},
                "workloads": ["Experiment1", "MultiDevice"],
                "policies": ["Conv", "FcDpm", {"Constant": 0.6}],
                "faults": ["None", "Starvation", "Combined"],
                "capacities_mamin": [50.0, 100.0],
                "resilient": [false, true]}"#,
        );
        assert!(got.is_empty(), "{got:#?}");
        let list = check_str(
            r#"{"seeds": {"List": [1, 2, 3]},
                "workloads": ["Experiment2"],
                "policies": ["Asap"]}"#,
        );
        assert!(list.is_empty(), "{list:#?}");
    }

    #[test]
    fn broken_gridspec_axes_are_rejected() {
        let got = check_str(
            r#"{"seeds": {"Range": {"start": 1, "count": 0}},
                "workloads": ["Experiment9"],
                "policies": [{"Constant": 1.3}],
                "faults": ["Meteor"],
                "capacities_mamin": [10.0],
                "resilient": [1]}"#,
        );
        assert!(
            got.iter().any(|f| f.message.contains("at least 1")),
            "{got:#?}"
        );
        assert!(
            got.iter().any(|f| f.message.contains("Experiment9")),
            "{got:#?}"
        );
        assert!(
            got.iter()
                .any(|f| f.message.contains("load-following range")),
            "{got:#?}"
        );
        assert!(got.iter().any(|f| f.message.contains("Meteor")), "{got:#?}");
        assert!(
            got.iter().any(|f| f.message.contains("sleep transition")),
            "{got:#?}"
        );
        assert!(
            got.iter().any(|f| f.message.contains("booleans")),
            "{got:#?}"
        );
        let empty_list = check_str(
            r#"{"seeds": {"List": []}, "workloads": ["Experiment1"], "policies": ["Conv"]}"#,
        );
        assert!(
            empty_list.iter().any(|f| f.message.contains("non-empty")),
            "{empty_list:#?}"
        );
    }

    #[test]
    fn range_checks_skip_without_manifest_params() {
        let doc: Value = serde_json::from_str(
            r#"{"policies": [{"Constant": 9.9}], "workloads": [{"Experiment1": 1}], "betas": [5.0]}"#,
        )
        .unwrap();
        let got = check("examples/fixture.json", &doc, None);
        assert!(got.is_empty(), "{got:#?}");
    }
}
