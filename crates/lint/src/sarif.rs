//! SARIF 2.1.0 rendering of a [`Report`].
//!
//! SARIF is the interchange format GitHub code scanning (and most other
//! CI viewers) ingest, so `fcdpm lint --format sarif` / `fcdpm analyze
//! --format sarif` can be uploaded as workflow artifacts without any
//! translation step. Only the minimal required subset is emitted: one
//! `run` with a tool descriptor, the rule catalogue, and one `result`
//! per finding. Output is deterministic because findings arrive sorted
//! and the [`Json`] writer preserves insertion order.

use crate::json::Json;
use crate::Report;

/// Renders `report` as a SARIF 2.1.0 document with every result at
/// `level: error` (neither catalogue has warning-tier rules).
///
/// `tool_name` names the driver (`fcdpm-lint` or `fcdpm-analyze`) and
/// `rules` is the tool's `(id, short description)` catalogue; every
/// finding's rule id should appear in it, but unknown ids still render
/// (SARIF permits results whose `ruleId` has no descriptor).
#[must_use]
pub fn to_sarif(report: &Report, tool_name: &str, rules: &[(&str, &str)]) -> String {
    let rule_objs = rules
        .iter()
        .map(|(id, summary)| {
            Json::Obj(vec![
                ("id".into(), Json::Str((*id).to_owned())),
                (
                    "shortDescription".into(),
                    Json::Obj(vec![("text".into(), Json::Str((*summary).to_owned()))]),
                ),
            ])
        })
        .collect();
    let results = report
        .findings
        .iter()
        .map(|f| {
            Json::Obj(vec![
                ("ruleId".into(), Json::Str(f.rule.into())),
                ("level".into(), Json::Str("error".into())),
                (
                    "message".into(),
                    Json::Obj(vec![("text".into(), Json::Str(f.message.clone()))]),
                ),
                (
                    "locations".into(),
                    Json::Arr(vec![Json::Obj(vec![(
                        "physicalLocation".into(),
                        Json::Obj(vec![
                            (
                                "artifactLocation".into(),
                                Json::Obj(vec![("uri".into(), Json::Str(f.path.clone()))]),
                            ),
                            (
                                "region".into(),
                                Json::Obj(vec![("startLine".into(), Json::Num(f.line as u64))]),
                            ),
                        ]),
                    )])]),
                ),
            ])
        })
        .collect();
    Json::Obj(vec![
        (
            "$schema".into(),
            Json::Str(
                "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"
                    .into(),
            ),
        ),
        ("version".into(), Json::Str("2.1.0".into())),
        (
            "runs".into(),
            Json::Arr(vec![Json::Obj(vec![
                (
                    "tool".into(),
                    Json::Obj(vec![(
                        "driver".into(),
                        Json::Obj(vec![
                            ("name".into(), Json::Str(tool_name.to_owned())),
                            ("rules".into(), Json::Arr(rule_objs)),
                        ]),
                    )]),
                ),
                ("results".into(), Json::Arr(results)),
            ])]),
        ),
    ])
    .to_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Finding;

    #[test]
    fn sarif_contains_findings_and_catalogue() {
        let report = Report {
            findings: vec![Finding {
                rule: "panic-policy",
                path: "crates/a/src/lib.rs".into(),
                line: 4,
                message: "`unwrap` in library code".into(),
            }],
            ..Report::default()
        };
        let rules = [("panic-policy", "no unwrap in library code")];
        let text = to_sarif(&report, "fcdpm-lint", &rules);
        assert_eq!(text, to_sarif(&report, "fcdpm-lint", &rules));
        assert!(text.contains("\"2.1.0\""));
        assert!(text.contains("\"fcdpm-lint\""));
        assert!(text.contains("\"crates/a/src/lib.rs\""));
        assert!(text.contains("\"startLine\": 4"));
        assert!(text.contains("\"level\": \"error\""));
        assert!(crate::json::parse(&text).is_ok());
    }

    #[test]
    fn empty_report_renders_empty_results() {
        let text = to_sarif(&Report::default(), "fcdpm-analyze", &[]);
        assert!(text.contains("\"results\": []"));
    }
}
