//! `benchmark compare <a.json> <b.json>`: two result sets (a the
//! parent, b the change — or two sets of the same code, to see whether
//! they agree), one row per end-to-end metric and workload.

use std::path::Path;

use crate::json::Json;
use crate::spec::{Better, EndToEnd, END_TO_END};
use crate::stats::{median, spread};
use crate::workloads::Workload;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The runs of one side disagree among themselves by more than the
    /// bound, so the medians decide nothing.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row's arithmetic: the ratio of medians (base: a), the share by
/// which b is worse, each side's spread, and what follows from them.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub median_a: f64,
    pub median_b: f64,
    pub ratio: f64,
    pub worse_by: f64,
    pub spread_a: f64,
    pub spread_b: f64,
    pub verdict: Verdict,
}

pub fn judge(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Row {
    let (median_a, median_b) = (median(a), median(b));
    let ratio = median_b / median_a;
    let worse_by = match metric.better {
        Better::Lower => ratio - 1.0,
        Better::Higher => 1.0 - ratio,
    };
    let (spread_a, spread_b) = (spread(a), spread(b));
    let better = |x: f64, y: f64| match metric.better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let b_wins_every_pair = b.iter().all(|&x| a.iter().all(|&y| better(x, y)));
    let verdict = if spread_a.max(spread_b) > metric.bound && !b_wins_every_pair {
        Verdict::Unresolved
    } else if worse_by > metric.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    Row {
        median_a,
        median_b,
        ratio,
        worse_by,
        spread_a,
        spread_b,
        verdict,
    }
}

struct Run<'a> {
    seed: u64,
    record: &'a Json,
}

fn runs_of<'a>(set: &'a Json, workload: Workload) -> Vec<Run<'a>> {
    let mut runs: Vec<Run<'a>> = set
        .get("runs")
        .map_or(&[][..], Json::as_arr)
        .iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload.name()))
        .map(|record| Run {
            seed: record.get("seed").and_then(Json::as_f64).unwrap_or(-1.0) as u64,
            record,
        })
        .collect();
    runs.sort_by_key(|r| r.seed);
    runs
}

fn values(runs: &[Run<'_>], metric: &str) -> Result<Vec<f64>, String> {
    runs.iter()
        .map(|r| {
            r.record
                .get("end_to_end")
                .and_then(|m| m.get(metric))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("a run has no {metric}"))
        })
        .collect()
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Prints the comparison; `Ok(false)` on any regression or any
/// difference in what was simulated.
pub fn run(a: &Path, b: &Path) -> Result<bool, String> {
    let (set_a, set_b) = (load(a)?, load(b)?);
    let mut agree = true;
    println!(
        "{:<14} {:<15} {:>13} {:>13} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median a", "median b", "b/a", "spread a", "spread b", "bound"
    );
    for workload in Workload::ALL {
        let (runs_a, runs_b) = (runs_of(&set_a, workload), runs_of(&set_b, workload));
        if runs_a.is_empty() || runs_b.is_empty() {
            return Err(format!("{}: missing from a result set", workload.name()));
        }
        // What was simulated must be the same, seed by seed.
        let seeds = |runs: &[Run<'_>]| runs.iter().map(|r| r.seed).collect::<Vec<_>>();
        if seeds(&runs_a) != seeds(&runs_b) {
            return Err(format!("{}: the sets ran different seeds", workload.name()));
        }
        for (ra, rb) in runs_a.iter().zip(&runs_b) {
            for key in ["digest", "events"] {
                if ra.record.get(key) != rb.record.get(key) {
                    agree = false;
                    println!(
                        "{:<14} seed {}: {key} differs ({} vs {})",
                        workload.name(),
                        ra.seed,
                        ra.record.get(key).unwrap_or(&Json::Null),
                        rb.record.get(key).unwrap_or(&Json::Null),
                    );
                }
            }
        }
        for metric in &END_TO_END {
            let row = judge(
                metric,
                &values(&runs_a, metric.name)?,
                &values(&runs_b, metric.name)?,
            );
            agree &= row.verdict != Verdict::Regressed;
            println!(
                "{:<14} {:<15} {:>13.5} {:>13.5} {:>8.4} {:>7.2}% {:>7.2}% {:>5.0}%  {}",
                workload.name(),
                metric.name,
                row.median_a,
                row.median_b,
                row.ratio,
                row.spread_a * 100.0,
                row.spread_b * 100.0,
                metric.bound * 100.0,
                row.verdict.as_str()
            );
        }
    }
    println!(
        "b/a is the ratio of medians with a as its base; spread is the distance between the \
         quartiles of a side's runs as a share of their median"
    );
    Ok(agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: EndToEnd = EndToEnd {
        name: "t_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.10,
    };
    const HIGHER: EndToEnd = EndToEnd {
        better: Better::Higher,
        ..LOWER
    };

    #[test]
    fn a_median_within_the_bound_is_ok_and_beyond_it_regressed() {
        let a = [1.00, 1.01, 0.99, 1.00];
        assert_eq!(
            judge(&LOWER, &a, &[1.05, 1.06, 1.04, 1.05]).verdict,
            Verdict::Ok
        );
        let slow = judge(&LOWER, &a, &[1.20, 1.21, 1.19, 1.20]);
        assert_eq!(slow.verdict, Verdict::Regressed);
        assert!((slow.ratio - 1.2).abs() < 1e-9 && (slow.worse_by - 0.2).abs() < 1e-9);
        // The same numbers read the other way for a higher-is-better metric.
        assert_eq!(
            judge(&HIGHER, &a, &[1.20, 1.21, 1.19, 1.20]).verdict,
            Verdict::Ok
        );
        assert_eq!(
            judge(&HIGHER, &a, &[0.80, 0.81, 0.79, 0.80]).verdict,
            Verdict::Regressed
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_b_wins_every_pair() {
        let noisy = [1.0, 1.4, 0.8, 1.2];
        assert_eq!(
            judge(&LOWER, &noisy, &[1.0, 1.0, 1.0, 1.0]).verdict,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&LOWER, &noisy, &[0.5, 0.6, 0.7, 0.6]).verdict,
            Verdict::Ok
        );
    }
}
