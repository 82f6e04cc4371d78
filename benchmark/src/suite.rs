//! Every workload in one command: one child process per workload (so
//! that each has its own peak memory), traced, their records gathered
//! into one result set for `compare`.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Stdio};

use crate::json::Json;
use crate::workloads::Workload;

/// Marks the line on which a workload run prints its full record.
pub const RECORD_PREFIX: &str = "record ";

/// Runs `workload` in a child process, passing its output through, and
/// returns its record.
fn child(workload: Workload, seed: u64, seconds: u64) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut process = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", "1"])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| e.to_string())?;
    let mut record = None;
    let stdout = process.stdout.take().ok_or("child has no stdout")?;
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| e.to_string())?;
        match line.strip_prefix(RECORD_PREFIX) {
            Some(text) => record = Some(Json::parse(text)?),
            // The bare result object is for the driver; the record
            // carries everything in it.
            None if line.starts_with('{') => {}
            None => println!("{line}"),
        }
    }
    let status = process.wait().map_err(|e| e.to_string())?;
    match record {
        Some(record) => Ok(record),
        None => Err(format!("{} left no record ({status})", workload.name())),
    }
}

/// Runs all workloads `runs` times, with seeds `seed`, `seed + 1`, …,
/// and writes the result set. `Ok(false)` when any run was incorrect.
pub fn run(seed: u64, seconds: u64, runs: u64, out: Option<PathBuf>) -> Result<bool, String> {
    let mut records = Vec::new();
    for run_seed in seed..seed + runs {
        for workload in Workload::ALL {
            records.push(child(workload, run_seed, seconds)?);
        }
    }
    let correct = records
        .iter()
        .all(|r| r.get("correct").and_then(Json::as_bool) == Some(true));
    let path = out.unwrap_or_else(|| crate::out_dir().join("results.json"));
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let set = Json::obj([("runs", Json::Arr(records))]);
    std::fs::write(&path, format!("{set}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# result set -> {}", path.display());
    Ok(correct)
}
