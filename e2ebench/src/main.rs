//! `reram-e2ebench` — one command for the repository's end-to-end and
//! per-layer performance, with output checks.
//!
//! ```text
//! reram-e2ebench --workload reproduce|calibrate|serve-mixed
//!                --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` a run measures whole rounds of its workload for `S`
//! seconds and prints the end-to-end metrics; with `--trace 1` it runs the
//! same work once more with the program's own counters and spans switched
//! on and prints the per-layer metrics. Either way the last line of
//! standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`, and
//! the same object plus extra detail is written to
//! `.bench_out/<workload>[.trace].json`. See `README.md` beside this crate.

mod calibrate;
mod checks;
mod measure;
mod probes;
mod reproduce;
mod serve_mixed;

use measure::Metrics;
use std::fmt::Write as _;
use std::process::ExitCode;

/// Where each run writes its result file, relative to the working
/// directory (the repository root).
pub const OUT_DIR: &str = ".bench_out";

/// Every per-layer metric with its unit. A traced run reports all of them;
/// a layer the workload leaves idle reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("experiments.perf_s", "s"),
    ("experiments.traffic_s", "s"),
    ("experiments.rest_s", "s"),
    ("sim.run_s", "s"),
    ("sim.host_ns_per_inst", "ns"),
    ("sim.instructions", "count"),
    ("workloads.next_access_ns", "ns"),
    ("core.plan_write_ns", "ns"),
    ("core.cell_writes", "count"),
    ("core.resets", "count"),
    ("core.pr.dummy_pairs", "count"),
    ("mem.reads", "count"),
    ("mem.writes", "count"),
    ("mem.write_latency_ns", "ns"),
    ("mem.controller.read_priority_stalls", "count"),
    ("mem.pump.recharges", "count"),
    ("mem.verify.attempts_per_write", "count"),
    ("circuit.solves", "count"),
    ("circuit.sweeps", "count"),
    ("circuit.solve_ms", "ms"),
    ("circuit.warm_hits", "count"),
    ("circuit.cache_skip_ratio", "ratio"),
    ("circuit.incremental_skip_ratio", "ratio"),
    ("array.to_crosspoint_us", "us"),
    ("serve.proto.encode_ns", "ns"),
    ("serve.proto.decode_ns", "ns"),
    ("server.decode_us", "us"),
    ("server.queue_us", "us"),
    ("server.gate_us", "us"),
    ("server.service_us", "us"),
    ("server.write_us", "us"),
    ("wire.other_us", "us"),
    ("wire.other_share", "ratio"),
    ("serve.read_p50_us", "us"),
    ("serve.write_p50_us", "us"),
    ("serve.read_p99_us", "us"),
    ("serve.write_p99_us", "us"),
    ("serve.busy", "count"),
    ("process.user_us_per_op", "us"),
    ("process.sys_us_per_op", "us"),
    ("surrogate.estimate_ns", "ns"),
    ("surrogate.hits", "count"),
    ("surrogate.misses", "count"),
    ("durable.append_us", "us"),
    ("durable.wal.appends", "count"),
    ("trace.overhead_pct", "%"),
];

/// What one run found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations the run attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Check failures; empty when every output was correct.
    pub failures: Vec<String>,
    /// The metrics to print.
    pub metrics: Metrics,
    /// Extra detail for the result file: `(key, JSON value)`.
    pub detail: Vec<(String, String)>,
}

impl Outcome {
    /// An outcome whose metrics start with every per-layer metric at 0.
    #[must_use]
    pub fn traced() -> Outcome {
        let mut o = Outcome::default();
        for &(name, unit) in PER_LAYER {
            o.metrics.put(name, 0.0, unit);
        }
        o
    }

    /// Records a batch of check failures.
    pub fn check(&mut self, what: &str, failures: Vec<String>) {
        for f in failures {
            eprintln!("CHECK FAILED [{what}]: {f}");
            self.failures.push(format!("{what}: {f}"));
        }
    }

    /// Adds a detail entry (a pre-rendered JSON value).
    pub fn note(&mut self, key: &str, json_value: impl Into<String>) {
        self.detail.push((key.to_string(), json_value.into()));
    }

    /// Records every round's wall and CPU seconds as detail.
    pub fn note_rounds(&mut self, rounds: &[measure::Round]) {
        let walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
        let cpus: Vec<f64> = rounds.iter().map(|r| r.cpu.total()).collect();
        self.note("round_wall_s", measure::json_list(&walls));
        self.note("round_cpu_s", measure::json_list(&cpus));
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement length, seconds.
    pub seconds: f64,
    /// Per-layer (traced) run.
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn result_json(o: &Outcome) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.failures.is_empty(),
        o.attempted,
        o.failed,
        o.metrics.to_json()
    )
}

fn write_result_file(args: &Args, o: &Outcome, line: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(OUT_DIR)?;
    let mut body = String::new();
    let _ = write!(
        body,
        "{{\n\"workload\": \"{}\",\n\"seed\": {},\n\"seconds\": {},\n\"trace\": {},\n\"result\": {line}",
        args.workload, args.seed, args.seconds, args.trace
    );
    for (k, v) in &o.detail {
        let _ = write!(body, ",\n\"{k}\": {v}");
    }
    let fails: Vec<String> = o
        .failures
        .iter()
        .map(|f| format!("\"{}\"", f.replace('\\', "\\\\").replace('"', "'")))
        .collect();
    let _ = write!(body, ",\n\"check_failures\": [{}]\n}}\n", fails.join(", "));
    let suffix = if args.trace { ".trace" } else { "" };
    std::fs::write(format!("{OUT_DIR}/{}{suffix}.json", args.workload), body)
}

/// Sets `workload` up in this process and returns; the parent of a
/// `--setup-only` child times it (see [`measure::setup_times`]).
fn setup_only(workload: &str, seed: u64) -> Result<(), String> {
    match workload {
        "reproduce" => reproduce::setup_only(),
        "calibrate" => calibrate::setup_only(),
        "serve-mixed" => serve_mixed::setup_only(seed),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, workload, seed] = argv.as_slice() {
        if flag == "--setup-only" {
            let seed = seed.parse().unwrap_or(1);
            return match setup_only(workload, seed) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            };
        }
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: reram-e2ebench --workload reproduce|calibrate|serve-mixed --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "reproduce" => reproduce::run(&args),
        "calibrate" => calibrate::run(&args),
        "serve-mixed" => serve_mixed::run(&args),
        other => Err(format!("unknown workload {other}")),
    };
    let mut outcome = match run {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let non_finite = outcome.metrics.non_finite();
    outcome.check(
        "metrics",
        non_finite
            .into_iter()
            .map(|n| format!("{n} is not finite"))
            .collect(),
    );
    let line = result_json(&outcome);
    if let Err(e) = write_result_file(&args, &outcome, &line) {
        eprintln!("warning: cannot write the result file: {e}");
    }
    println!("{line}");
    ExitCode::SUCCESS
}
