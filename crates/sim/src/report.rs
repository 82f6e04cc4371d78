//! Plain-text formatters turning experiment results into the rows and
//! series the paper's figures plot, plus the small figure-shaped bridge
//! types they consume ([`SweepPoint`]).

use std::fmt::Write as _;

use mlora_core::Scheme;

use crate::runner::CellResult;
use crate::{Environment, SimReport};

/// One cell of the Fig. 8/9/12/13 sweeps: a (gateways, environment)
/// combination and its simulation report, whose
/// [`scheme`](SimReport::scheme) label names the row.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Number of gateways deployed.
    pub gateways: usize,
    /// Radio environment.
    pub environment: Environment,
    /// The run's metrics.
    pub report: SimReport,
}

impl SweepPoint {
    /// Row order of the figure tables: environment, gateways, label.
    fn row_key(&self) -> (&'static str, usize, &str) {
        (self.environment.label(), self.gateways, &self.report.scheme)
    }

    /// Extracts sweep points (one per cell, first replicate) from runner
    /// results — the bridge from the plan API to the per-figure
    /// formatters in this module.
    pub fn from_cells(cells: &[CellResult]) -> Vec<SweepPoint> {
        cells
            .iter()
            .map(|cell| SweepPoint {
                gateways: cell.key.gateways,
                environment: cell.key.environment,
                report: cell.report.single().clone(),
            })
            .collect()
    }
}

/// Formats the Fig. 8 table: mean end-to-end delay ± standard error per
/// (environment, gateways, scheme).
pub fn fig8_delay_table(points: &[SweepPoint]) -> String {
    metric_table(points, "mean end-to-end delay (s) ± stderr", |r| {
        format!("{:9.1} ±{:5.1}", r.mean_delay_s(), r.delay_std_error_s())
    })
}

/// Formats the Fig. 9 table: total unique messages delivered.
pub fn fig9_throughput_table(points: &[SweepPoint]) -> String {
    metric_table(points, "total throughput (unique msgs received)", |r| {
        format!("{:9}", r.delivered)
    })
}

/// Formats a replicated sweep: per-cell mean ± 95 % CI of a metric over
/// the cell's replicate seeds, one row per `(env, gateways, scheme)`.
pub fn replicated_table(
    cells: &[CellResult],
    title: &str,
    metric: impl Fn(&SimReport) -> f64,
) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "# {title} (mean ± 95% CI over replicate seeds)");
    let _ = writeln!(
        s,
        "{:>6} {:>6} {:>12} {:>5} {:>21}",
        "env", "gws", "scheme", "n", "value"
    );
    let mut sorted: Vec<&CellResult> = cells.iter().collect();
    sorted.sort_by_key(|&c| {
        (
            c.key.environment.label(),
            c.key.gateways,
            &c.report.single().scheme,
        )
    });
    for cell in sorted {
        let mean = cell.report.mean(&metric);
        let (lo, hi) = cell.report.ci95(&metric);
        let _ = writeln!(
            s,
            "{:>6} {:>6} {:>12} {:>5} {:>12.1} ±{:>7.1}",
            cell.key.environment.label(),
            cell.key.gateways,
            cell.report.single().scheme,
            cell.report.n(),
            mean,
            (hi - lo) / 2.0,
        );
    }
    s
}

/// Formats a resilience sweep: per-cell overall delivery ratio next to
/// the during-outage and outside-outage ratios, plus the disrupted time
/// and withdrawn-fleet share — one row per
/// `(disruption, environment, scheme)` cell, first replicate.
pub fn resilience_table(cells: &[CellResult]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "# delivery under disruption (first replicate per cell)");
    let _ = writeln!(
        s,
        "{:>6} {:>6} {:>6} {:>12} {:>9} {:>9} {:>9} {:>10} {:>10}",
        "env", "plan", "gws", "scheme", "deliv%", "outage%", "clear%", "outage(s)", "withdrawn"
    );
    let mut sorted: Vec<&CellResult> = cells.iter().collect();
    sorted.sort_by_key(|&c| {
        (
            c.key.disruption,
            c.key.environment.label(),
            c.key.gateways,
            &c.report.single().scheme,
        )
    });
    for cell in sorted {
        let r = cell.report.single();
        let _ = writeln!(
            s,
            "{:>6} {:>6} {:>6} {:>12} {:>8.1}% {:>8.1}% {:>8.1}% {:>10.0} {:>10}",
            cell.key.environment.label(),
            cell.key.disruption,
            cell.key.gateways,
            r.scheme,
            100.0 * r.delivery_ratio(),
            100.0 * r.outage_delivery_ratio(),
            100.0 * r.clear_delivery_ratio(),
            r.outage_time_s,
            r.buses_withdrawn,
        );
    }
    s
}

/// Formats one run's per-traffic-profile breakdown: generation,
/// delivery ratio, mean delay and the airtime share each application
/// class consumed. Empty (header only) for a run under the paper's
/// homogeneous default.
pub fn traffic_profile_table(report: &SimReport) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "# per-profile delivery / delay / airtime");
    let _ = writeln!(
        s,
        "{:>18} {:>9} {:>9} {:>8} {:>10} {:>11} {:>11}",
        "profile", "generated", "delivered", "deliv%", "delay(s)", "airtime(s)", "bytes-sent"
    );
    for p in &report.profiles {
        let _ = writeln!(
            s,
            "{:>18} {:>9} {:>9} {:>7.1}% {:>10.1} {:>11.1} {:>11}",
            p.name,
            p.generated,
            p.delivered,
            100.0 * p.delivery_ratio(),
            p.mean_delay_s(),
            p.airtime_s,
            p.payload_bytes_sent,
        );
    }
    s
}

/// Formats a policy-labelled comparison: one row per cell (first
/// replicate), keyed by the label each run's [`SimReport::scheme`]
/// carries — so built-in schemes and user-defined
/// [`ForwardingPolicy`](mlora_core::ForwardingPolicy) entries of a
/// [`schemes`](crate::ExperimentPlan::schemes) sweep line up in one
/// table with delivery, delay, hop and overhead columns.
pub fn scheme_table(cells: &[CellResult]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "# forwarding-policy comparison (first replicate per cell)"
    );
    let _ = writeln!(
        s,
        "{:>6} {:>6} {:>14} {:>9} {:>10} {:>6} {:>10}",
        "env", "gws", "policy", "deliv%", "delay(s)", "hops", "msgs/node"
    );
    let mut sorted = cells.to_vec();
    sorted.sort_by(|a, b| {
        (a.key.environment.label(), a.key.gateways, a.key.policy).cmp(&(
            b.key.environment.label(),
            b.key.gateways,
            b.key.policy,
        ))
    });
    for cell in &sorted {
        let r = cell.report.single();
        let _ = writeln!(
            s,
            "{:>6} {:>6} {:>14} {:>8.1}% {:>10.1} {:>6.2} {:>10.2}",
            cell.key.environment.label(),
            cell.key.gateways,
            r.scheme,
            100.0 * r.delivery_ratio(),
            r.mean_delay_s(),
            r.mean_hops(),
            r.mean_messages_sent_per_node(),
        );
    }
    s
}

/// Formats the Fig. 12 table: mean hop count of delivered messages.
pub fn fig12_hops_table(points: &[SweepPoint]) -> String {
    metric_table(points, "mean hops per delivered message", |r| {
        format!("{:9.2}", r.mean_hops())
    })
}

/// Formats the Fig. 13 table: mean frames transmitted per device, plus
/// the overhead ratio against the LoRaWAN baseline in the same cell.
pub fn fig13_overhead_table(points: &[SweepPoint]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "# mean messages sent per node (overhead vs LoRaWAN)");
    let _ = writeln!(
        s,
        "{:>6} {:>6} {:>12} {:>16}",
        "env", "gws", "scheme", "msgs/node"
    );
    let mut sorted: Vec<&SweepPoint> = points.iter().collect();
    sorted.sort_by_key(|&p| p.row_key());
    for p in sorted {
        let baseline = points
            .iter()
            .find(|q| {
                q.environment == p.environment
                    && q.gateways == p.gateways
                    && q.report.scheme == Scheme::NoRouting.label()
            })
            .map(|q| q.report.mean_messages_sent_per_node());
        let ratio = match baseline {
            Some(b) if b > 0.0 => format!(" ({:.2}x)", p.report.mean_messages_sent_per_node() / b),
            _ => String::new(),
        };
        let _ = writeln!(
            s,
            "{:>6} {:>6} {:>12} {:>13.2}{}",
            p.environment.label(),
            p.gateways,
            p.report.scheme,
            p.report.mean_messages_sent_per_node(),
            ratio
        );
    }
    s
}

/// Formats the Figs. 10–11 series: unique deliveries per bucket, one
/// column per report, headed by its scheme label.
pub fn time_series_table(rows: &[SimReport], environment: Environment) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "# msgs received per bucket over time ({environment}, one column per scheme)"
    );
    let mut header = format!("{:>9}", "t_start_s");
    for r in rows {
        header.push_str(&format!(" {:>9}", r.scheme));
    }
    let _ = writeln!(s, "{header}");
    let n = rows
        .iter()
        .map(|r| r.throughput_series.counts().len())
        .max()
        .unwrap_or(0);
    for i in 0..n {
        let t = rows
            .first()
            .map(|r| r.throughput_series.bucket().as_millis() as usize * i / 1000)
            .unwrap_or(0);
        let mut line = format!("{t:>9}");
        for r in rows {
            let c = r.throughput_series.counts().get(i).copied().unwrap_or(0);
            line.push_str(&format!(" {c:>9}"));
        }
        let _ = writeln!(s, "{line}");
    }
    s
}

/// Generic sweep-table formatter used by the per-figure functions.
fn metric_table(points: &[SweepPoint], title: &str, cell: impl Fn(&SimReport) -> String) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "# {title}");
    let _ = writeln!(
        s,
        "{:>6} {:>6} {:>12} {:>18}",
        "env", "gws", "scheme", "value"
    );
    let mut sorted: Vec<&SweepPoint> = points.iter().collect();
    sorted.sort_by_key(|&p| p.row_key());
    for p in sorted {
        let _ = writeln!(
            s,
            "{:>6} {:>6} {:>12} {:>18}",
            p.environment.label(),
            p.gateways,
            p.report.scheme,
            cell(&p.report)
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExperimentPlan, Runner, Scenario, SimConfig};

    fn base() -> SimConfig {
        Scenario::urban()
            .smoke()
            .duration(mlora_simcore::SimDuration::from_mins(30))
            .build()
            .expect("valid config")
    }

    fn points() -> Vec<SweepPoint> {
        let plan = ExperimentPlan::new(base())
            .environments([Environment::Urban])
            .gateway_counts([4])
            .schemes(Scheme::ALL)
            .fixed_seeds([3]);
        SweepPoint::from_cells(&Runner::new().run(&plan).expect("valid sweep"))
    }

    #[test]
    fn tables_contain_all_schemes() {
        let pts = points();
        for table in [
            fig8_delay_table(&pts),
            fig9_throughput_table(&pts),
            fig12_hops_table(&pts),
            fig13_overhead_table(&pts),
        ] {
            for scheme in Scheme::ALL {
                assert!(
                    table.contains(scheme.label()),
                    "table missing {scheme}:\n{table}"
                );
            }
        }
    }

    #[test]
    fn sweep_points_cover_plan_cells_in_order() {
        let plan = ExperimentPlan::new(base())
            .environments([Environment::Urban, Environment::Rural])
            .gateway_counts([4, 9])
            .schemes(Scheme::ALL)
            .fixed_seeds([5]);
        let cells = Runner::new().run(&plan).expect("valid plan");
        let pts = SweepPoint::from_cells(&cells);
        assert_eq!(pts.len(), 2 * 2 * 3);
        assert!(pts.iter().all(|p| p.report.generated > 0));
        // Combinations are unique and follow plan order.
        let mut keys: Vec<_> = pts
            .iter()
            .map(|p| (p.gateways, p.environment, p.report.scheme.clone()))
            .collect();
        keys.dedup();
        assert_eq!(keys.len(), 12);
        for (pt, cell) in pts.iter().zip(&cells) {
            assert_eq!(pt.report, *cell.report.single());
        }
    }

    #[test]
    fn sweep_point_matches_direct_run() {
        // A plan cell must reproduce exactly what a direct run of the
        // same configuration produces — same config, same seed.
        let plan = ExperimentPlan::new(base())
            .environments([Environment::Rural])
            .gateway_counts([4])
            .schemes([Scheme::Robc])
            .fixed_seeds([9]);
        let pts = SweepPoint::from_cells(&Runner::new().run(&plan).expect("valid plan"));
        let mut direct = base();
        direct.environment = Environment::Rural;
        direct.num_gateways = 4;
        direct.policy = Scheme::Robc.into();
        assert_eq!(pts[0].report, direct.run(9).unwrap());
    }

    #[test]
    fn scheme_table_keys_rows_by_run_label() {
        let plan = ExperimentPlan::new(base())
            .gateway_counts([4])
            .schemes([Scheme::NoRouting, Scheme::Robc])
            .fixed_seeds([3]);
        let cells = Runner::new().run(&plan).expect("valid sweep");
        let table = scheme_table(&cells);
        assert!(table.contains("LoRaWAN"), "{table}");
        assert!(table.contains("ROBC"), "{table}");
        assert_eq!(cells[0].report.single().scheme, "LoRaWAN");
        assert_eq!(cells[1].report.single().scheme, "ROBC");
    }

    #[test]
    fn tables_name_rows_by_the_label_the_run_carries() {
        use mlora_core::{Beacon, ForwardingPolicy, PolicyContext, PolicySpec, Rssi};

        /// Never forwards, under whatever name the sweep gives it.
        #[derive(Debug, Clone)]
        struct Named(&'static str);
        impl ForwardingPolicy for Named {
            fn label(&self) -> &str {
                self.0
            }
            fn clone_box(&self) -> Box<dyn ForwardingPolicy> {
                Box::new(self.clone())
            }
            fn forwards(&mut self, _: &PolicyContext<'_>, _: &Beacon, _: Rssi<'_>) -> bool {
                false
            }
        }

        let plan = ExperimentPlan::new(base())
            .gateway_counts([4])
            .schemes(["zeta", "alpha"].map(|name| PolicySpec::of(Named(name))))
            .fixed_seeds([3]);
        let cells = Runner::new().run(&plan).expect("valid sweep");
        let table = replicated_table(&cells, "deliveries", |r| r.delivered as f64);
        let rows: Vec<&str> = table.lines().skip(2).collect();
        assert!(
            rows.len() == 2 && rows[0].contains("alpha") && rows[1].contains("zeta"),
            "{table}"
        );
        let table = fig9_throughput_table(&SweepPoint::from_cells(&cells));
        assert!(table.contains("alpha") && table.contains("zeta"), "{table}");
    }

    #[test]
    fn overhead_table_reports_ratio() {
        let table = fig13_overhead_table(&points());
        assert!(
            table.contains("1.00x"),
            "baseline row should be 1.00x:\n{table}"
        );
    }

    #[test]
    fn resilience_table_reports_disruption_columns() {
        use crate::{DisruptionPlan, GatewayOutage};
        use mlora_simcore::SimTime;

        let disrupted = DisruptionPlan {
            outages: vec![GatewayOutage {
                gateway: 0,
                start: SimTime::from_secs(300),
                duration: None,
            }],
            ..DisruptionPlan::default()
        };
        let plan = ExperimentPlan::new(base())
            .gateway_counts([4])
            .schemes([Scheme::Robc])
            .disruptions([DisruptionPlan::default(), disrupted])
            .fixed_seeds([3]);
        let cells = Runner::new().run(&plan).expect("valid sweep");
        let table = resilience_table(&cells);
        assert!(table.contains("outage%"), "{table}");
        // The undisrupted row reports zero disrupted seconds; the
        // disrupted one carries the open-ended outage to the horizon.
        assert_eq!(cells[0].report.single().outage_time_s, 0.0);
        assert!(cells[1].report.single().outage_time_s > 0.0);
    }

    #[test]
    fn traffic_table_reports_every_profile() {
        use crate::{Scenario, TrafficProfile};

        let report = Scenario::urban()
            .smoke()
            .duration(mlora_simcore::SimDuration::from_mins(40))
            .profile(TrafficProfile::telemetry().weight(3.0))
            .profile(TrafficProfile::alerts())
            .run(5)
            .expect("valid traffic scenario");
        let table = traffic_profile_table(&report);
        assert!(table.contains("telemetry"), "{table}");
        assert!(table.contains("alerts"), "{table}");
        // The homogeneous default renders header-only.
        let plain = Scenario::urban()
            .smoke()
            .duration(mlora_simcore::SimDuration::from_mins(40))
            .run(5)
            .unwrap();
        assert_eq!(traffic_profile_table(&plain).lines().count(), 2);
    }

    #[test]
    fn series_table_has_bucket_rows() {
        let plan = ExperimentPlan::new(base())
            .environments([Environment::Urban])
            .gateway_counts([4])
            .schemes(Scheme::ALL)
            .fixed_seeds([3]);
        let rows: Vec<SimReport> = Runner::new()
            .run(&plan)
            .expect("valid series")
            .into_iter()
            .map(|cell| cell.report.into_runs().remove(0).1)
            .collect();
        let table = time_series_table(&rows, Environment::Urban);
        // 30 min / 10 min buckets = 3 data lines + 2 header lines.
        assert_eq!(table.lines().count(), 5, "table:\n{table}");
    }
}
