//! Metrics, failure accounting and the timing loop shared by every
//! workload.

use std::cell::RefCell;
use std::time::Instant;

use crate::stats::{floor, median, Summary};

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json` where it is listed there.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `s`, `ms`, `tok/s`, `count`.
    pub unit: &'static str,
    /// Samples behind the value, for percentiles and medians.
    pub samples: Option<usize>,
}

/// An ordered metric list with a few constructors.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Adds a plain value.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
            samples: None,
        });
    }

    /// Adds a value that summarizes `samples` samples.
    pub fn put_n(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
            samples: Some(samples),
        });
    }

    /// Adds `<prefix>_p50<suffix>` and `<prefix>_p99<suffix>` of `s`, each
    /// scaled by `scale`.
    pub fn put_summary(
        &mut self,
        prefix: &str,
        suffix: &str,
        s: Summary,
        scale: f64,
        unit: &'static str,
    ) {
        self.put_n(format!("{prefix}_p50{suffix}"), s.p50 * scale, unit, s.n);
        self.put_n(format!("{prefix}_p99{suffix}"), s.p99 * scale, unit, s.n);
    }

    /// The metric called `name`.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }
}

/// Operations attempted and failed, plus the output checks that failed.
///
/// An operation is the workload's unit of work (a request, a prefill or
/// decode step, a task). A failed operation is a rejection or a simulator
/// error; every failed output check also counts one failed operation.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, output-check failures included.
    pub failed: u64,
    /// Description of every output check that failed.
    pub failures: Vec<String>,
}

impl Tally {
    /// Records `attempted` operations of which `failed` failed.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Records an output check; a failure counts as one failed operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Records a simulator error as a failed operation and a failed check.
    pub fn error(&mut self, what: impl std::fmt::Display) {
        self.attempted += 1;
        self.check(false, || format!("simulator error: {what}"));
    }

    /// Failed operations over attempted ones (0 when nothing ran).
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed.min(self.attempted) as f64 / self.attempted as f64
        }
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Everything one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics, measured with tracing off.
    pub end_to_end: Metrics,
    /// Per-layer metrics from the traced run (empty without tracing).
    pub per_layer: Metrics,
    /// Properties of the generated inputs.
    pub inputs: Metrics,
    /// Operations and output checks.
    pub tally: Tally,
}

/// Runs `work` once as a warm-up, then repeats it until `secs` seconds of
/// host time have passed and at least `min_reps` repetitions ran. Returns
/// the host seconds of each timed repetition and the last result.
pub fn repeat<R>(secs: f64, min_reps: usize, mut work: impl FnMut() -> R) -> (Vec<f64>, R) {
    let mut last = work();
    let mut times = Vec::new();
    let start = Instant::now();
    while times.len() < min_reps || start.elapsed().as_secs_f64() < secs {
        let t0 = Instant::now();
        last = std::hint::black_box(work());
        times.push(t0.elapsed().as_secs_f64());
    }
    (times, last)
}

/// Runs `f` and pushes its host seconds to `units`, after one
/// calibration sample.
pub fn timed<T>(units: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    calibrate();
    let t0 = Instant::now();
    let out = f();
    units.push(t0.elapsed().as_secs_f64());
    out
}

/// Median host seconds of `reps` calls to `build` at the reference speed,
/// and the last value built. Set-up is timed cold: no warm-up, since users
/// pay it every run. The calibration samples interleaved with the set-ups
/// give this phase its own speed scale: the set-ups run back to back at
/// the start of a process, which the rest of the run may not resemble.
pub fn time_setup<S>(reps: usize, mut build: impl FnMut() -> S) -> (f64, S) {
    let mut times = Vec::with_capacity(reps);
    let mut calibration = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        calibration.push(calibrate());
        let t0 = Instant::now();
        let built = std::hint::black_box(build());
        times.push(t0.elapsed().as_secs_f64());
        last = Some(built);
    }
    let scale = CALIBRATION_REF_SECS / floor(&calibration);
    (median(&times) * scale, last.expect("at least one set-up"))
}

/// Host seconds the calibration kernel takes at the reference speed: its
/// floor on an unloaded 2-core 2.0 GHz sandbox.
const CALIBRATION_REF_SECS: f64 = 0.6e-3;

thread_local! {
    static CALIBRATION: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// A fixed computation shaped like the simulator's host work: small
/// allocations, string formatting and scalar `f64` arithmetic.
fn calibration_kernel() -> f64 {
    let mut acc = 0.0f64;
    let mut rows: Vec<Vec<f64>> = Vec::new();
    for i in 0..4_000u64 {
        let label = format!("phase{i}");
        let mut row = vec![0.0f64; 48];
        for (j, x) in row.iter_mut().enumerate() {
            *x = ((i as f64 + j as f64) * 1.000_1).sqrt() / (1.0 + label.len() as f64);
        }
        acc += row.iter().sum::<f64>();
        rows.push(row);
        if rows.len() > 256 {
            rows.clear();
        }
    }
    acc
}

/// Times the calibration kernel once, records the sample and returns it.
pub fn calibrate() -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(calibration_kernel());
    let secs = t0.elapsed().as_secs_f64();
    CALIBRATION.with(|c| c.borrow_mut().push(secs));
    secs
}

/// Factor that converts this run's host times to the reference speed:
/// the kernel's reference time over its floor in this run (1 when no
/// sample was taken).
///
/// Other tenants of a shared machine slow this process by tens of percent
/// for seconds at a time. They slow the interleaved calibration kernel by
/// the same factor, so scaled host times hold still while raw ones move.
pub fn speed_scale() -> f64 {
    CALIBRATION.with(|c| {
        let samples = c.borrow();
        if samples.is_empty() {
            1.0
        } else {
            CALIBRATION_REF_SECS / floor(&samples)
        }
    })
}

/// Peak resident memory of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fail_ratio_counts_rejections_errors_and_checks() {
        let mut t = Tally::default();
        assert_eq!(t.fail_ratio(), 0.0);
        t.ops(10, 2); // ten requests, two rejected
        assert_eq!(t.fail_ratio(), 0.2);
        assert!(t.correct());
        t.check(true, || unreachable!());
        t.check(false, || "conservation".to_string());
        assert_eq!((t.attempted, t.failed), (10, 3));
        assert!(!t.correct());
        t.error("VA space exceeded");
        assert_eq!((t.attempted, t.failed), (11, 4));
        assert_eq!(t.failures.len(), 2);
        // Check failures never push the ratio past one.
        let mut all = Tally::default();
        all.ops(1, 1);
        all.check(false, || "x".to_string());
        assert_eq!(all.fail_ratio(), 1.0);
    }

    #[test]
    fn repeat_runs_at_least_the_minimum() {
        let mut calls = 0;
        let (times, last) = repeat(0.0, 3, || {
            calls += 1;
            calls
        });
        assert_eq!(times.len(), 3);
        assert_eq!((calls, last), (4, 4)); // warm-up plus three timed
        let (setup_s, built) = time_setup(2, || 5);
        assert!(setup_s >= 0.0);
        assert_eq!(built, 5);
    }

    #[test]
    fn summaries_carry_sample_counts() {
        let mut m = Metrics::default();
        m.put_summary("ttft", "_s", Summary::of(&[1.0, 2.0, 3.0]), 1.0, "s");
        assert_eq!(m.get("ttft_p50_s").unwrap().samples, Some(3));
        assert_eq!(m.get("ttft_p99_s").unwrap().value, 3.0);
    }
}
