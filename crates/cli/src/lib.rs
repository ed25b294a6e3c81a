//! Implementation of the `fcdpm` command-line tool.
//!
//! The binary is a thin wrapper around [`parse`] + [`execute`], both of
//! which are pure (no process exit, output returned as a `String`) so the
//! whole surface is unit-testable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod args;
mod bench;
mod commands;

pub use args::{
    parse, Command, DeviceChoice, ExperimentId, GridAction, ParseCliError, PolicyChoice,
    ReportFormat, TraceKind,
};
pub use commands::{execute, CmdOutput};

/// The usage text printed by `fcdpm help` and on parse errors.
#[must_use]
pub fn usage() -> String {
    "\
fcdpm — fuel-efficient dynamic power management toolkit (DAC'07 reproduction)

USAGE:
    fcdpm experiment <exp1|exp2> [--capacity-mamin <N>] [--seed <N>] [--policy <conv|asap|fcdpm|all>]
    fcdpm trace <camcorder|synthetic> [--seed <N>] [--minutes <N>]
    fcdpm curve <stack|efficiency>
    fcdpm simulate <trace.csv> [--device <camcorder|exp2>] [--capacity-mamin <N>]
    fcdpm lifetime [--moles <N>] [--capacity-mamin <N>]
    fcdpm sizing [--tolerance-as <N>]
    fcdpm batch <grid.json> [--jobs <N>] [--out <DIR>]
    fcdpm grid <run|resume> <spec.json> [--jobs <N>] [--shard-size <N>] [--out <DIR>] [--run-id <ID>]
                            [--max-attempts <N>] [--retry-backoff-ms <N>] [--checkpoint-batch <N>]
    fcdpm grid status <run-dir>
    fcdpm grid gc <grid-root> [--dry-run]
    fcdpm faults [--quick] [--seed <N>] [--jobs <N>] [--out <DIR>]
    fcdpm bench [--out <FILE>]
    fcdpm analyze [--format <human|json|sarif>] [--baseline <FILE>] [--root <DIR>] [--write-baseline]
    fcdpm help

COMMANDS:
    experiment   run the paper's Experiment 1 or 2 and print the fuel table
    trace        generate a workload trace as CSV on stdout
    curve        print the stack I-V-P curve or the system-efficiency curves
    simulate     run the three policies on a CSV trace (idle_s,active_s,active_w)
    lifetime     run Experiment 1 cyclically until a hydrogen tank runs dry
    sizing       smallest storage capacity for unconstrained FC-DPM (Exp. 1)
    batch        run a JSON job grid on the worker pool, write a run manifest
    grid         fleet-scale engine: lazy cross-product GridSpec, sharded
                 streaming spill to shard-*.jsonl, digest-keyed resume,
                 mid-shard checkpointing, bounded retry, crash-artifact gc
    faults       seeded fault-injection sweep: canonical schedules under plain,
                 resilient and Conv-DPM policies, deterministic manifest
    bench        deterministic harness: fixture grid, coalescing gates, fault
                 sweep and grid resume, payload to BENCH_4.json
    analyze      static analysis, nine rules: determinism, unit-safety,
                 panic-policy, crate-hygiene, unit-dataflow, layering,
                 paper-constants, digest-stability, atomic-artifact
                 (exit 1 on any non-baselined finding)
    help         show this message
"
    .to_owned()
}

#[cfg(test)]
mod tests {
    #[test]
    fn usage_lists_every_analyze_rule() {
        let usage = super::usage();
        for rule in fcdpm_analyze::Rule::ALL {
            assert!(usage.contains(rule.id()), "usage omits `{}`", rule.id());
        }
    }
}
