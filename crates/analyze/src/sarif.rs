//! SARIF 2.1.0 rendering of a [`Report`].
//!
//! SARIF is the interchange format GitHub code scanning (and most other
//! CI viewers) ingest, so `fcdpm analyze --format sarif` can be uploaded
//! as a workflow artifact without any translation step. Only the
//! minimal required subset is emitted: one `run` with a tool descriptor,
//! the rule catalogue, and one `result` per finding. Output is
//! deterministic because findings arrive sorted and object keys keep
//! insertion order.

use serde_json::Value;

use crate::{Report, Rule};

/// An object with keys in the given order.
fn obj<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Map(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn text(s: &str) -> Value {
    Value::Str(s.to_owned())
}

/// Renders `report` as a SARIF 2.1.0 document with every result at
/// `level: error` (the catalogue has no warning-tier rules).
#[must_use]
pub(crate) fn to_sarif(report: &Report) -> String {
    let rules = Rule::ALL
        .iter()
        .map(|rule| {
            obj([
                ("id", text(rule.id())),
                ("shortDescription", obj([("text", text(rule.summary()))])),
            ])
        })
        .collect();
    let results = report
        .findings
        .iter()
        .map(|f| {
            obj([
                ("ruleId", text(f.rule)),
                ("level", text("error")),
                ("message", obj([("text", text(&f.message))])),
                (
                    "locations",
                    Value::Seq(vec![obj([(
                        "physicalLocation",
                        obj([
                            ("artifactLocation", obj([("uri", text(&f.path))])),
                            ("region", obj([("startLine", Value::UInt(f.line as u64))])),
                        ]),
                    )])]),
                ),
            ])
        })
        .collect();
    crate::to_pretty_json(&obj([
        (
            "$schema",
            text("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"),
        ),
        ("version", text("2.1.0")),
        (
            "runs",
            Value::Seq(vec![obj([
                (
                    "tool",
                    obj([(
                        "driver",
                        obj([("name", text("fcdpm-analyze")), ("rules", Value::Seq(rules))]),
                    )]),
                ),
                ("results", Value::Seq(results)),
            ])]),
        ),
    ]))
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
        let text = to_sarif(&report);
        assert_eq!(text, to_sarif(&report));
        assert!(text.contains("\"2.1.0\""));
        assert!(text.contains("\"fcdpm-analyze\""));
        assert!(text.contains("\"crates/a/src/lib.rs\""));
        assert!(text.contains("\"startLine\": 4"));
        assert!(text.contains("\"level\": \"error\""));
        for rule in Rule::ALL {
            assert!(text.contains(rule.summary()), "missing rule {}", rule.id());
        }
        assert!(serde_json::from_str::<Value>(&text).is_ok());
    }

    #[test]
    fn empty_report_renders_empty_results() {
        let text = to_sarif(&Report::default());
        assert!(text.contains("\"results\": []"));
    }
}
