//! The repository benchmark: seeded workloads through the public APIs of
//! `npuscale`, `edgellm`, `htpops` and `ttscale`, reporting host time (what
//! the simulator costs to run) and simulated device time (what the paper's
//! figures report), with a traced mode that splits both by layer.
//!
//! Run from the repository root:
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_bursty --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Every metric is printed as `name = value unit (n=samples)`; the last
//! line of standard output is one JSON object with the metrics
//! `BENCHMARK.json` lists (its `end_to_end` list with `--trace 0`, its
//! `per_layer` list with `--trace 1`). The process exits non-zero if any
//! output check fails. See `perfbench/README.md` for the metric map.

mod bon;
mod deploy;
mod json;
mod kernels;
mod report;
mod serve;
mod stats;
mod trace;
mod tts;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use json::Json;
use report::{Metric, Metrics, Outcome};
use trace::Tracer;

/// The benchmark's own directory, where traced runs write their Chrome
/// trace (under `out/`); the repository root is its parent.
const BENCH_DIR: &str = env!("CARGO_MANIFEST_DIR");

/// A file at the repository root.
pub fn repo_file(name: &str) -> PathBuf {
    Path::new(BENCH_DIR).join("..").join(name)
}

/// Workload names, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["serve_bursty", "tts_decode", "bon_functional"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds >= 0.0 && seconds.is_finite()) {
        return Err("--seconds must be a non-negative number".to_string());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn listed(doc: &Json, list: &str) -> Result<Vec<(String, String)>, String> {
    doc.get(list)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("BENCHMARK.json has no `{list}` list"))?
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
            match (field("name"), field("unit")) {
                (Some(n), Some(u)) => Ok((n, u)),
                _ => Err(format!("malformed `{list}` entry in BENCHMARK.json")),
            }
        })
        .collect()
}

/// Writes a traced run's spans to `perfbench/out/trace_<workload>_<seed>.json`.
pub fn write_trace(tracer: &Tracer, workload: &str, seed: u64) {
    let path = Path::new(BENCH_DIR)
        .join("out")
        .join(format!("trace_{workload}_{seed}.json"));
    match tracer.write_chrome(&path) {
        Ok(()) => println!(
            "trace written to {} ({} spans)",
            path.display(),
            tracer.spans().len()
        ),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

fn print_section(title: &str, metrics: &Metrics) {
    println!("-- {title}");
    for Metric {
        name,
        value,
        unit,
        samples,
    } in &metrics.0
    {
        match samples {
            Some(n) => println!("{name:<40} = {value:.6} {unit} (n={n})"),
            None => println!("{name:<40} = {value:.6} {unit}"),
        }
    }
}

/// The result line: the listed metrics, taken from `metrics`. A listed
/// metric the workload does not produce is an error for end-to-end lists
/// and 0 (the layer did no work) for per-layer lists.
fn result_metrics(
    listed: &[(String, String)],
    metrics: &Metrics,
    missing_is_zero: bool,
) -> Result<Json, String> {
    let mut fields = Vec::with_capacity(listed.len());
    for (name, unit) in listed {
        let value = match metrics.get(name) {
            Some(m) if m.unit == unit => m.value,
            Some(m) => {
                return Err(format!(
                    "{name} measured in {} but listed in {unit}",
                    m.unit
                ))
            }
            None if missing_is_zero => 0.0,
            None => return Err(format!("workload did not measure {name}")),
        };
        fields.push((
            name.clone(),
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(unit.clone())),
            ]),
        ));
    }
    Ok(Json::Obj(fields))
}

fn run_workload(args: &Args) -> Outcome {
    match args.workload.as_str() {
        "serve_bursty" => serve::run(args.seed, args.seconds, args.trace, serve::FULL),
        "tts_decode" => tts::run(args.seed, args.seconds, args.trace, tts::FULL),
        "bon_functional" => bon::run(args.seed, args.seconds, args.trace, bon::FULL),
        _ => unreachable!("workload names are validated"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let doc = match std::fs::read_to_string(repo_file("BENCHMARK.json"))
        .map_err(|e| format!("reading BENCHMARK.json: {e}"))
        .and_then(|t| Json::parse(&t))
    {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let list = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    let listed = match listed(&doc, list) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };

    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let out = run_workload(&args);
    print_section("inputs", &out.inputs);
    print_section("end-to-end (tracing off)", &out.end_to_end);
    if args.trace {
        print_section("per-layer (traced run)", &out.per_layer);
    }
    for f in &out.tally.failures {
        println!("CHECK FAILED: {f}");
    }
    let section = if args.trace {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    let metrics = match result_metrics(&listed, section, args.trace) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let line = Json::obj([
        ("correct", Json::Bool(out.tally.correct())),
        ("attempted", Json::Num(out.tally.attempted as f64)),
        ("failed", Json::Num(out.tally.failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", line.to_string_compact());
    if out.tally.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Json {
        let text = std::fs::read_to_string(repo_file("BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    #[test]
    fn benchmark_json_names_every_workload() {
        let doc = benchmark_json();
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(names, WORKLOADS);
        assert!(listed(&doc, "end_to_end")
            .unwrap()
            .iter()
            .any(|(n, u)| n == "setup_s" && u == "s"));
        assert!(!listed(&doc, "per_layer").unwrap().is_empty());
    }

    #[test]
    fn result_metrics_follow_the_list() {
        let mut m = Metrics::default();
        m.put("a", 1.5, "s");
        let listed = vec![
            ("a".to_string(), "s".to_string()),
            ("b".to_string(), "count".to_string()),
        ];
        assert!(result_metrics(&listed, &m, false).is_err());
        let j = result_metrics(&listed, &m, true).unwrap();
        assert_eq!(
            j.to_string_compact(),
            r#"{"a":{"value":1.5,"unit":"s"},"b":{"value":0,"unit":"count"}}"#
        );
        let wrong_unit = vec![("a".to_string(), "ms".to_string())];
        assert!(result_metrics(&wrong_unit, &m, true).is_err());
    }
}
