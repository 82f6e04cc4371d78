//! The repo benchmark.
//!
//! ```text
//! benchmark [--seed N] [--seconds N] [--runs N] [--out FILE]
//!     every workload, one process each, traced; writes a result set
//! benchmark --workload NAME [--seed N] [--seconds N] [--trace 0|1]
//!     one workload; the last line of output is the result object
//! benchmark compare A.json B.json
//!     two result sets, metric by metric
//! ```

mod compare;
mod host;
mod json;
mod kernels;
mod report;
mod session;
mod spec;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use mlora_sim::{Engine, SimReport};

use json::Json;
use report::{LayerInputs, Measured};
use session::{judge, repetition, warm_up, Ops, Rep};
use trace::Tracer;
use workloads::Workload;

/// Untraced repetitions never go below this, however short `--seconds`.
const MIN_REPS: usize = 3;
/// The seed used when none is given.
const DEFAULT_SEED: u64 = 2020;

/// Where trace files and result sets go: `out/` beside this package's
/// manifest, inside the checkout wherever it lies.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// First line of a helper program's output, or "unknown".
fn first_line_of(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|s| s.lines().next().map(|l| l.trim().to_string()))
        .filter(|l| !l.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// What every output row records about where it was measured.
fn host_meta() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("nproc", Json::num(nproc as f64)),
        ("rustc", Json::str(first_line_of("rustc", &["-V"]))),
        (
            "commit",
            Json::str(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    runs: u64,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: spec::RUN_SECONDS,
        trace: false,
        runs: 1,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                parsed.workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?,
            "--runs" => parsed.runs = number()?.max(1),
            "--trace" => parsed.trace = number()? != 0,
            "--out" => parsed.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(parsed)
}

/// Runs one workload in this process and prints its metrics; the last
/// line printed is the result object. `Ok(false)` when an output check
/// failed.
fn run_workload(w: Workload, seed: u64, seconds: u64, trace: bool) -> Result<bool, String> {
    let meta = host_meta();
    println!(
        "# {} seed {seed}: {} (closed loop, one thread; {meta})",
        w.name(),
        w.why()
    );
    let reference = warm_up(w, seed)?;

    let mut ops = Ops::default();
    let mut reps: Vec<Rep> = Vec::new();
    let mut off = Tracer::new(false);
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    // Stops where one more repetition, taking as long as the last,
    // would run past the budget.
    let mut last = Duration::ZERO;
    while reps.len() < MIN_REPS || start.elapsed() + last < budget {
        let began = Instant::now();
        let outcome = repetition(w, seed, &mut off);
        last = began.elapsed();
        match outcome {
            Ok(rep) => {
                let first = reps.first().map_or(rep.digest, |r| r.digest);
                ops.record("repetition", judge(&rep, first));
                ops.absorb(&rep.ops);
                reps.push(rep);
            }
            Err(why) => {
                ops.record("repetition", Err(why));
                break;
            }
        }
    }
    // Read before the traced repetition and the kernels allocate.
    let peak_rss = peak_rss_mib()?;
    let Some(first) = reps.first() else {
        return Err(ops.failures.join("; "));
    };
    let digest = first.digest;
    let end_to_end = report::end_to_end(&reps, peak_rss);

    let layers = if trace {
        match traced_layers(
            w,
            seed,
            &reps,
            reference.as_ref(),
            off.host_speed(),
            &mut ops,
        ) {
            Ok(layers) => Some(layers),
            Err(why) => {
                ops.record("traced repetition", Err(why));
                None
            }
        }
    } else {
        None
    };

    for line in &ops.failures {
        println!("FAILED {line}");
    }
    let correct = ops.failed == 0;
    print_metrics(&end_to_end, layers.as_deref());
    println!(
        "{} digest {digest:016x} over {} repetitions; failed_share {}/{}; host at {:.2} of its nominal speed",
        w.name(),
        reps.len(),
        ops.failed,
        ops.attempted,
        off.host_speed()
    );

    let metric_obj = |unit: &str, value: f64| {
        Json::obj([("value", Json::num(value)), ("unit", Json::str(unit))])
    };
    let e2e_json = Json::obj(end_to_end.iter().map(|m| {
        (
            m.name,
            Json::obj([
                ("value", Json::num(m.value)),
                ("unit", Json::str(m.unit)),
                ("n", Json::num(m.n as f64)),
                ("q1", Json::num(m.q1)),
                ("q3", Json::num(m.q3)),
            ]),
        )
    }));
    let layers_json = layers.as_ref().map_or(Json::Null, |layers| {
        Json::obj(layers.iter().map(|&(n, u, v)| (n, metric_obj(u, v))))
    });
    // What the driver reads: the per-layer metrics of a traced run, the
    // end-to-end metrics otherwise.
    let metrics = match &layers {
        Some(_) => layers_json.clone(),
        None => Json::obj(
            end_to_end
                .iter()
                .map(|m| (m.name, metric_obj(m.unit, m.value))),
        ),
    };
    let record = Json::obj([
        ("workload", Json::str(w.name())),
        ("seed", Json::num(seed as f64)),
        ("seconds", Json::num(seconds as f64)),
        ("meta", meta),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::num(ops.attempted as f64)),
        ("failed", Json::num(ops.failed as f64)),
        ("digest", Json::str(format!("{digest:016x}"))),
        ("events", Json::num(first.events as f64)),
        ("end_to_end", e2e_json),
        ("per_layer", layers_json),
    ]);
    println!("{}{record}", suite::RECORD_PREFIX);

    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::num(ops.attempted as f64)),
            ("failed", Json::num(ops.failed as f64)),
            ("metrics", metrics),
        ])
    );
    Ok(correct)
}

/// The traced repetition, the kernels on the workload's own inputs, the
/// trace file, and the per-layer metrics they add up to.
fn traced_layers(
    w: Workload,
    seed: u64,
    reps: &[Rep],
    reference: Option<&SimReport>,
    host_speed: f64,
    ops: &mut Ops,
) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    let mut tracer = Tracer::new(true);
    tracer.set_rep(reps.len() as u32);
    let traced = repetition(w, seed, &mut tracer)?;
    ops.record("repetition", judge(&traced, reps[0].digest));
    ops.absorb(&traced.ops);
    let run_report = traced
        .report
        .as_ref()
        .or(reference)
        .ok_or("no report of the run span")?;
    let cfg = w.config(seed, &mut Tracer::new(false))?.cfg;
    let engine = Engine::new(cfg.clone(), seed);
    let collisions = run_report.collisions as f64 / run_report.frames_sent.max(1) as f64;
    let costs = kernels::run(w, &cfg, &engine, collisions, &mut tracer);
    let path = out_dir().join(format!("trace-{}.jsonl", w.name()));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# {} spans -> {}", tracer.spans().len(), path.display());
    Ok(report::per_layer(&LayerInputs {
        workload: w,
        cfg: &cfg,
        reps,
        traced: &traced,
        report: run_report,
        costs: &costs,
        spans: tracer.spans().len(),
        attempted: ops.attempted,
        failed: ops.failed,
        host_speed,
    }))
}

fn print_metrics(end_to_end: &[Measured], layers: Option<&[(&str, &str, f64)]>) {
    println!("end-to-end (tracing off; at the host's nominal speed; median of n, with quartiles)");
    for m in end_to_end {
        println!(
            "  {:<28} {:>16.6} {:<6} n={} q1={:.6} q3={:.6}",
            m.name, m.value, m.unit, m.n, m.q1, m.q3
        );
    }
    if let Some(layers) = layers {
        println!(
            "per layer (traced repetition, kernels on the workload's inputs, simulated counts)"
        );
        for (name, unit, value) in layers {
            println!("  {name:<28} {value:>16.6} {unit}");
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().map(String::as_str) == Some("compare") {
        match &args[1..] {
            [a, b] => compare::run(a.as_ref(), b.as_ref()),
            _ => Err("usage: benchmark compare <a.json> <b.json>".to_string()),
        }
    } else {
        parse_args(&args).and_then(|a| match a.workload {
            Some(w) => run_workload(w, a.seed, a.seconds, a.trace),
            None => suite::run(a.seed, a.seconds, a.runs, a.out),
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("benchmark: {why}");
            ExitCode::from(2)
        }
    }
}
