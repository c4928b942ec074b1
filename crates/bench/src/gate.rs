//! The claim gate the gate examples (`device_sweep`, `serving_sim`,
//! `thermal_sweep`, `spec_decode`) check their claims through: one
//! [`Gate::fail_if`] call per claim, then one closing [`Gate::finish`]
//! after the example has written its `BENCH_*.json` artifact, which fails
//! the process if any claim failed.

use std::fmt::Display;

/// Whether any claim checked so far failed.
#[derive(Debug, Default)]
pub struct Gate {
    failed: bool,
}

impl Gate {
    /// Records a failed claim when `bad` holds, printing
    /// `REGRESSION: <msg>` to stderr. `msg` is built only then.
    pub fn fail_if<M: Display>(&mut self, bad: bool, msg: impl FnOnce() -> M) {
        if bad {
            eprintln!("REGRESSION: {}", msg());
            self.failed = true;
        }
    }

    /// Ends the run: if any claim failed, prints `summary` to stderr and
    /// exits the process with status 1. Call it after the artifact is
    /// written, so a failing run still leaves it to inspect.
    pub fn finish(self, summary: &str) {
        if self.failed {
            eprintln!("{summary}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_passing_claim_leaves_the_gate_clean_and_builds_no_message() {
        let mut gate = Gate::default();
        gate.fail_if(false, || -> String {
            panic!("message built for a passing claim")
        });
        assert!(!gate.failed);
    }

    #[test]
    fn a_failing_claim_records_the_failure() {
        let mut gate = Gate::default();
        gate.fail_if(true, || "claim failed on purpose");
        gate.fail_if(false, || "a later passing claim");
        assert!(gate.failed);
    }
}
