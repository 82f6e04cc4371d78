//! Declarative experiment plans and the parallel multi-seed runner.
//!
//! [`ExperimentPlan`] expresses a §VII-style sweep as axes over a base
//! configuration — environments × gateway counts × schemes × α ×
//! placement × device class — replicated over any number of seeds.
//! [`Runner`] executes every `(cell, seed)` pair across `std::thread`
//! workers and aggregates each cell into a [`ReplicatedReport`] with
//! mean / confidence-interval accessors.
//!
//! Results are bit-for-bit independent of the worker count: every run's
//! seed is derived from the plan alone (never from scheduling order), so
//! `Runner::new()` and [`Runner::single_threaded`] produce identical
//! output for the same plan.
//!
//! # Example
//!
//! ```
//! use mlora_sim::prelude::*;
//!
//! // A miniature Fig. 9: urban vs rural × two gateway densities × two
//! // schemes, three seeds per cell.
//! let base = Scenario::urban().smoke().duration_h(1).build()?;
//! let plan = ExperimentPlan::new(base)
//!     .environments([Environment::Urban, Environment::Rural])
//!     .gateway_counts([4, 9])
//!     .schemes([Scheme::NoRouting, Scheme::Robc])
//!     .replicate(3);
//! let cells = Runner::new().run(&plan)?;
//! assert_eq!(cells.len(), 8);
//! for cell in &cells {
//!     let (lo, hi) = cell.report.ci95(|r| r.delivery_ratio());
//!     assert!(lo <= hi);
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use mlora_core::PolicySpec;
use mlora_simcore::stats::Welford;

use crate::{
    ConfigError, DeviceClassChoice, DisruptionPlan, Environment, GatewayPlacement, SimConfig,
    SimReport, Snapshot, SnapshotError, TrafficModel,
};

/// The paper's gateway counts: 40–100 in steps of 10.
pub const PAPER_GATEWAY_COUNTS: [usize; 7] = [40, 50, 60, 70, 80, 90, 100];

/// How a plan assigns seeds to replicate runs.
#[derive(Debug, Clone, PartialEq)]
enum SeedPolicy {
    /// Replicate seeds are derived per `(cell, replicate)` from the
    /// plan's master seed, so every cell sees independent randomness.
    Derived {
        /// Runs per cell.
        replications: usize,
    },
    /// Every cell runs exactly these seeds (the classic "same fleet and
    /// traffic in every cell" comparison the paper's figures use).
    Fixed(Vec<u64>),
}

/// The coordinates of one sweep cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellKey {
    /// Radio environment.
    pub environment: Environment,
    /// Number of gateways deployed.
    pub gateways: usize,
    /// Index into the plan's forwarding axis (0 when the axis was never
    /// set — the base configuration's own policy). The policy's label is
    /// carried by every replicate's
    /// [`SimReport::scheme`](crate::SimReport).
    pub policy: usize,
    /// EWMA smoothing factor α.
    pub alpha: f64,
    /// Gateway placement strategy.
    pub placement: GatewayPlacement,
    /// Device class for the fleet.
    pub device_class: DeviceClassChoice,
    /// Index into the plan's disruption axis (0 when the axis was never
    /// set — the base configuration's own plan).
    pub disruption: usize,
    /// Index into the plan's traffic axis (0 when the axis was never
    /// set — the base configuration's own model).
    pub traffic: usize,
}

/// One cell of a plan: its coordinates and the fully resolved config.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanCell {
    /// Position of this cell in plan order.
    pub index: usize,
    /// The cell's coordinates.
    pub key: CellKey,
    /// The configuration every replicate of this cell runs.
    pub config: SimConfig,
}

/// A declarative sweep: axes over a base configuration plus a seed
/// policy.
///
/// Axes default to the base configuration's own value; setting an axis
/// replaces it. Cells enumerate in row-major order with environments
/// outermost, then gateway counts, schemes, alphas, placements, device
/// classes, disruption timelines and traffic models.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentPlan {
    base: SimConfig,
    environments: Vec<Environment>,
    gateway_counts: Vec<usize>,
    schemes: Vec<PolicySpec>,
    alphas: Vec<f64>,
    placements: Vec<GatewayPlacement>,
    device_classes: Vec<DeviceClassChoice>,
    disruptions: Vec<DisruptionPlan>,
    traffics: Vec<TrafficModel>,
    /// Master seed for derived replication (set by [`ExperimentPlan::seed`];
    /// remembered even while a fixed-seed policy is active).
    base_seed: u64,
    seeds: SeedPolicy,
}

impl ExperimentPlan {
    /// A plan over `base` with every axis at the base's own value and a
    /// single derived seed.
    pub fn new(base: SimConfig) -> Self {
        ExperimentPlan {
            environments: vec![base.environment],
            gateway_counts: vec![base.num_gateways],
            schemes: vec![base.policy.clone()],
            alphas: vec![base.alpha],
            placements: vec![base.placement],
            device_classes: vec![base.device_class],
            disruptions: vec![base.disruptions.clone()],
            traffics: vec![base.traffic.clone()],
            base_seed: 0,
            seeds: SeedPolicy::Derived { replications: 1 },
            base,
        }
    }

    /// Sweeps the radio environment.
    pub fn environments(mut self, axis: impl IntoIterator<Item = Environment>) -> Self {
        self.environments = axis.into_iter().collect();
        self
    }

    /// Sweeps the gateway count (Figs. 8, 9, 12, 13 use 40–100).
    pub fn gateway_counts(mut self, axis: impl IntoIterator<Item = usize>) -> Self {
        self.gateway_counts = axis.into_iter().collect();
        self
    }

    /// Sweeps the forwarding policy — the paper's schemes (bare
    /// [`Scheme`](mlora_core::Scheme)s) or user-defined
    /// [`ForwardingPolicy`](mlora_core::ForwardingPolicy)
    /// implementations ([`PolicySpec::of`]), side by side in one grid
    /// when both are given as specs. Cells carry the axis position in
    /// [`CellKey::policy`]; each run's
    /// [`SimReport::scheme`](crate::SimReport) carries the policy's
    /// label, which is how the tables of [`crate::report`] name rows.
    pub fn schemes(mut self, axis: impl IntoIterator<Item = impl Into<PolicySpec>>) -> Self {
        self.schemes = axis.into_iter().map(Into::into).collect();
        self
    }

    /// Sweeps the EWMA factor α (the §VII.C ablation).
    pub fn alphas(mut self, axis: impl IntoIterator<Item = f64>) -> Self {
        self.alphas = axis.into_iter().collect();
        self
    }

    /// Sweeps the gateway placement strategy.
    pub fn placements(mut self, axis: impl IntoIterator<Item = GatewayPlacement>) -> Self {
        self.placements = axis.into_iter().collect();
        self
    }

    /// Sweeps the device class (the §VI comparison).
    pub fn device_classes(mut self, axis: impl IntoIterator<Item = DeviceClassChoice>) -> Self {
        self.device_classes = axis.into_iter().collect();
        self
    }

    /// Sweeps the disruption timeline — e.g. increasing outage density
    /// for a resilience study. Cells carry the axis position in
    /// [`CellKey::disruption`].
    pub fn disruptions(mut self, axis: impl IntoIterator<Item = DisruptionPlan>) -> Self {
        self.disruptions = axis.into_iter().collect();
        self
    }

    /// Sweeps the traffic model — e.g. the paper's homogeneous workload
    /// against increasingly heterogeneous mixes. Cells carry the axis
    /// position in [`CellKey::traffic`].
    pub fn traffics(mut self, axis: impl IntoIterator<Item = TrafficModel>) -> Self {
        self.traffics = axis.into_iter().collect();
        self
    }

    /// Replicates every cell over `n` seeds derived from the master seed
    /// (see [`ExperimentPlan::seed`]; default 0).
    ///
    /// Switches the plan to derived seeding: any earlier
    /// [`ExperimentPlan::fixed_seeds`] list is replaced, though a master
    /// seed set with [`ExperimentPlan::seed`] is kept.
    pub fn replicate(mut self, n: usize) -> Self {
        self.seeds = SeedPolicy::Derived { replications: n };
        self
    }

    /// Sets the master seed that replicate seeds derive from, and
    /// switches the plan to derived seeding (replacing any earlier
    /// [`ExperimentPlan::fixed_seeds`] list; the replication count is
    /// kept).
    pub fn seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        if let SeedPolicy::Fixed(ref s) = self.seeds {
            self.seeds = SeedPolicy::Derived {
                replications: s.len().max(1),
            };
        }
        self
    }

    /// Runs exactly these seeds in every cell, in order — the classic
    /// same-fleet-everywhere comparison. Replaces any earlier
    /// [`ExperimentPlan::seed`]/[`ExperimentPlan::replicate`] policy.
    pub fn fixed_seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = SeedPolicy::Fixed(seeds.into_iter().collect());
        self
    }

    /// Runs per cell under the current seed policy.
    pub fn replications(&self) -> usize {
        match &self.seeds {
            SeedPolicy::Derived { replications, .. } => *replications,
            SeedPolicy::Fixed(seeds) => seeds.len(),
        }
    }

    /// The seed of replicate `rep` in cell `cell` — a pure function of
    /// the plan, never of scheduling.
    ///
    /// # Panics
    ///
    /// Panics if `rep >= self.replications()` under a fixed-seed policy.
    pub fn seed_for(&self, cell: usize, rep: usize) -> u64 {
        match &self.seeds {
            SeedPolicy::Derived { .. } => derive_seed(self.base_seed, cell as u64, rep as u64),
            SeedPolicy::Fixed(seeds) => seeds[rep],
        }
    }

    /// The number of cells in the sweep.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Overflow`] when the product of the eight
    /// axis lengths does not fit a machine word — a plan that could
    /// never be materialized, caught before any allocation is sized
    /// from the wrapped product.
    pub fn num_cells(&self) -> Result<usize, ConfigError> {
        [
            self.gateway_counts.len(),
            self.schemes.len(),
            self.alphas.len(),
            self.placements.len(),
            self.device_classes.len(),
            self.disruptions.len(),
            self.traffics.len(),
        ]
        .iter()
        .try_fold(self.environments.len(), |acc, &len| acc.checked_mul(len))
        .ok_or(ConfigError::Overflow {
            field: "experiment plan cells",
        })
    }

    /// Materializes every cell in plan order.
    pub fn cells(&self) -> Vec<PlanCell> {
        let mut out = Vec::with_capacity(self.num_cells().unwrap_or(0));
        for &environment in &self.environments {
            for &gateways in &self.gateway_counts {
                for (policy, spec) in self.schemes.iter().enumerate() {
                    for &alpha in &self.alphas {
                        for &placement in &self.placements {
                            for &device_class in &self.device_classes {
                                for (disruption, plan) in self.disruptions.iter().enumerate() {
                                    for (traffic, model) in self.traffics.iter().enumerate() {
                                        let key = CellKey {
                                            environment,
                                            gateways,
                                            policy,
                                            alpha,
                                            placement,
                                            device_class,
                                            disruption,
                                            traffic,
                                        };
                                        let mut config = self.base.clone();
                                        config.environment = environment;
                                        config.num_gateways = gateways;
                                        config.policy = spec.clone();
                                        config.alpha = alpha;
                                        config.placement = placement;
                                        config.device_class = device_class;
                                        config.disruptions = plan.clone();
                                        config.traffic = model.clone();
                                        out.push(PlanCell {
                                            index: out.len(),
                                            key,
                                            config,
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Checks that every axis and the seed set are non-empty.
    fn check_axes(&self) -> Result<(), RunnerError> {
        for (axis, len) in [
            ("environments", self.environments.len()),
            ("gateway_counts", self.gateway_counts.len()),
            ("schemes", self.schemes.len()),
            ("alphas", self.alphas.len()),
            ("placements", self.placements.len()),
            ("device_classes", self.device_classes.len()),
            ("disruptions", self.disruptions.len()),
            ("traffics", self.traffics.len()),
            ("seeds", self.replications()),
        ] {
            if len == 0 {
                return Err(RunnerError::EmptyPlan { axis });
            }
        }
        self.num_cells()
            .map_err(|source| RunnerError::PlanOverflow { source })?;
        Ok(())
    }

    /// Checks that the plan has work to do and that every cell's
    /// configuration is valid.
    ///
    /// # Errors
    ///
    /// Returns [`RunnerError::EmptyPlan`] when an axis or the seed set is
    /// empty, or [`RunnerError::InvalidCell`] for the first bad cell.
    pub fn validate(&self) -> Result<(), RunnerError> {
        self.check_axes()?;
        validate_cells(&self.cells())
    }
}

/// Validates every materialized cell's configuration.
fn validate_cells(cells: &[PlanCell]) -> Result<(), RunnerError> {
    for cell in cells {
        cell.config
            .validate()
            .map_err(|source| RunnerError::InvalidCell {
                cell: cell.index,
                key: cell.key,
                source,
            })?;
    }
    Ok(())
}

/// SplitMix64 finalizer.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mixes `(base, cell, rep)` into a decorrelated run seed.
fn derive_seed(base: u64, cell: u64, rep: u64) -> u64 {
    splitmix64(splitmix64(base ^ splitmix64(cell)) ^ rep)
}

/// Errors from plan validation or execution.
#[derive(Debug)]
pub enum RunnerError {
    /// An axis (or the seed set) of the plan is empty.
    EmptyPlan {
        /// The empty axis.
        axis: &'static str,
    },
    /// A cell's resolved configuration failed validation.
    InvalidCell {
        /// Index of the offending cell in plan order.
        cell: usize,
        /// The offending cell's coordinates.
        key: CellKey,
        /// The underlying configuration error.
        source: ConfigError,
    },
    /// The plan's cell count overflows a machine word and could never
    /// be materialized.
    PlanOverflow {
        /// The underlying overflow error.
        source: ConfigError,
    },
    /// A simulation run panicked inside a worker thread.
    RunPanicked {
        /// Index of the offending cell in plan order.
        cell: usize,
        /// The seed of the panicking run.
        seed: u64,
        /// The panic payload, if it was a string.
        message: String,
    },
}

impl std::fmt::Display for RunnerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunnerError::EmptyPlan { axis } => {
                write!(f, "experiment plan has an empty {axis} axis")
            }
            RunnerError::InvalidCell { cell, key, source } => {
                write!(f, "cell {cell} ({key:?}) is invalid: {source}")
            }
            RunnerError::PlanOverflow { source } => {
                write!(f, "experiment plan is unrealizably large: {source}")
            }
            RunnerError::RunPanicked {
                cell,
                seed,
                message,
            } => write!(f, "run (cell {cell}, seed {seed}) panicked: {message}"),
        }
    }
}

impl std::error::Error for RunnerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunnerError::InvalidCell { source, .. } | RunnerError::PlanOverflow { source } => {
                Some(source)
            }
            _ => None,
        }
    }
}

/// The replicated results of one cell: every `(seed, report)` pair plus
/// mean / spread / confidence-interval accessors over any scalar metric.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicatedReport {
    runs: Vec<(u64, SimReport)>,
}

impl ReplicatedReport {
    /// Wraps a non-empty set of seeded runs.
    ///
    /// # Panics
    ///
    /// Panics if `runs` is empty.
    pub fn new(runs: Vec<(u64, SimReport)>) -> Self {
        assert!(!runs.is_empty(), "a cell must have at least one run");
        ReplicatedReport { runs }
    }

    /// Number of replicate runs.
    pub fn n(&self) -> usize {
        self.runs.len()
    }

    /// The `(seed, report)` pairs, in replicate order.
    pub fn runs(&self) -> &[(u64, SimReport)] {
        &self.runs
    }

    /// The first replicate's report — the whole result when a cell ran a
    /// single seed.
    pub fn single(&self) -> &SimReport {
        &self.runs[0].1
    }

    /// Consumes the cell into its `(seed, report)` pairs.
    pub fn into_runs(self) -> Vec<(u64, SimReport)> {
        self.runs
    }

    /// The metric accumulator over `metric` across replicates.
    fn stats(&self, metric: impl Fn(&SimReport) -> f64) -> Welford {
        let mut w = Welford::new();
        for (_, report) in &self.runs {
            w.push(metric(report));
        }
        w
    }

    /// Mean of `metric` over replicates.
    pub fn mean(&self, metric: impl Fn(&SimReport) -> f64) -> f64 {
        self.stats(metric).mean()
    }

    /// Sample standard deviation of `metric` over replicates.
    pub fn std_dev(&self, metric: impl Fn(&SimReport) -> f64) -> f64 {
        self.stats(metric).std_dev()
    }

    /// Standard error of the mean of `metric`.
    pub fn std_error(&self, metric: impl Fn(&SimReport) -> f64) -> f64 {
        self.stats(metric).std_error()
    }

    /// A normal-approximation 95 % confidence interval `(lo, hi)` for the
    /// mean of `metric`. With one replicate the interval collapses to the
    /// point value.
    pub fn ci95(&self, metric: impl Fn(&SimReport) -> f64) -> (f64, f64) {
        let stats = self.stats(metric);
        let half = 1.96 * stats.std_error();
        (stats.mean() - half, stats.mean() + half)
    }

    /// Mean unique deliveries (the Fig. 9 measure).
    pub fn delivered_mean(&self) -> f64 {
        self.mean(|r| r.delivered as f64)
    }
}

/// One executed cell: coordinates plus replicated results.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Index of the cell in plan order.
    pub index: usize,
    /// The cell's coordinates.
    pub key: CellKey,
    /// The cell's replicated results.
    pub report: ReplicatedReport,
}

/// Executes [`ExperimentPlan`]s across worker threads.
#[derive(Debug, Clone)]
pub struct Runner {
    workers: usize,
}

impl Default for Runner {
    fn default() -> Self {
        Runner::new()
    }
}

impl Runner {
    /// A runner using all available CPU parallelism.
    pub fn new() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Runner { workers }
    }

    /// A runner executing every run on the calling thread, in plan order.
    pub fn single_threaded() -> Self {
        Runner { workers: 1 }
    }

    /// Overrides the worker-thread count (clamped to ≥ 1).
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// Executes every `(cell, seed)` pair of `plan` and returns one
    /// [`CellResult`] per cell, in plan order.
    ///
    /// Output is identical for any worker count: run seeds derive from
    /// the plan, and results are placed by plan position.
    ///
    /// # Errors
    ///
    /// Returns [`RunnerError`] if the plan is empty or any cell is
    /// invalid (detected before any simulation starts), or if a run
    /// panics.
    pub fn run(&self, plan: &ExperimentPlan) -> Result<Vec<CellResult>, RunnerError> {
        plan.check_axes()?;
        let cells = plan.cells();
        validate_cells(&cells)?;
        let reps = plan.replications();

        // A run costs one thread, so the worker count is the budget.
        let reports = pool(self.workers, cells.len() * reps, |job| {
            let cell = job / reps;
            let seed = plan.seed_for(cell, job % reps);
            crate::Engine::new(cells[cell].config.clone(), seed).run()
        })
        .map_err(|(job, message)| RunnerError::RunPanicked {
            cell: job / reps,
            seed: plan.seed_for(job / reps, job % reps),
            message,
        })?;

        // Jobs ran cell-major: each cell takes the next `reps` reports.
        let mut reports = reports.into_iter();
        let out = cells.into_iter().map(|cell| {
            let seeds = (0..reps).map(|rep| plan.seed_for(cell.index, rep));
            CellResult {
                index: cell.index,
                key: cell.key,
                report: ReplicatedReport::new(seeds.zip(reports.by_ref()).collect()),
            }
        });
        Ok(out.collect())
    }

    /// Forks `snapshot` into one what-if branch per overlay and drives
    /// the branches concurrently under the runner's thread budget:
    /// branch `i` resumes the captured run under
    /// [`Engine::resume_with_overlay`](crate::Engine::resume_with_overlay)
    /// with `overlays[i]` and runs to the horizon. Reports come back in
    /// overlay order; an empty (default) overlay reproduces the
    /// uninterrupted run's report bit for bit, so a control branch is
    /// just `DisruptionPlan::default()`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] when the snapshot is corrupt or an overlay is
    /// invalid for it (surfaced from the first failing branch in overlay
    /// order), or [`SnapshotError::BranchPanicked`] when a branch dies.
    pub fn fork(
        &self,
        snapshot: &Snapshot,
        overlays: &[DisruptionPlan],
    ) -> Result<Vec<SimReport>, SnapshotError> {
        let branches = pool(self.workers, overlays.len(), |branch| {
            crate::Engine::resume_with_overlay(snapshot, overlays[branch].clone())
                .map(crate::Engine::finish)
        })
        .map_err(|(branch, message)| SnapshotError::BranchPanicked { branch, message })?;
        // Surface per-branch resume errors in overlay order.
        branches.into_iter().collect()
    }
}

/// Runs `job(0)`, …, `job(jobs - 1)` on `min(workers, jobs)` scoped
/// threads that pull indices from one cursor. The results come back in
/// job order, or — when a job panics — the index and message of the
/// first one that did; workers pull no further jobs once one has.
fn pool<T: Send>(
    workers: usize,
    jobs: usize,
    job: impl Fn(usize) -> T + Sync,
) -> Result<Vec<T>, (usize, String)> {
    let slots: Vec<Mutex<Option<T>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let failure: Mutex<Option<(usize, String)>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for _ in 0..workers.min(jobs) {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let failed = failure.lock().map(|g| g.is_some()).unwrap_or(true);
                if i >= jobs || failed {
                    return;
                }
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job(i))) {
                    Ok(result) => *slots[i].lock().expect("slot lock") = Some(result),
                    Err(payload) => {
                        let message = panic_message(payload.as_ref());
                        let mut failure = failure.lock().expect("failure lock");
                        failure.get_or_insert((i, message));
                        return;
                    }
                }
            });
        }
    });

    if let Some(err) = failure.into_inner().expect("failure lock") {
        return Err(err);
    }
    let results = slots.into_iter().map(|slot| {
        let result = slot.into_inner().expect("slot lock");
        result.expect("every job completed")
    });
    Ok(results.collect())
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scenario;
    use mlora_core::Scheme;
    use mlora_simcore::SimDuration;

    fn tiny() -> SimConfig {
        Scenario::urban()
            .smoke()
            .duration(SimDuration::from_mins(40))
            .build()
            .expect("tiny scenario is valid")
    }

    #[test]
    fn plan_enumerates_cross_product_in_order() {
        let plan = ExperimentPlan::new(tiny())
            .environments([Environment::Urban, Environment::Rural])
            .gateway_counts([4, 9])
            .schemes([Scheme::NoRouting, Scheme::Robc]);
        let cells = plan.cells();
        assert_eq!(cells.len(), 8);
        assert_eq!(plan.num_cells().unwrap(), 8);
        assert_eq!(cells[0].key.environment, Environment::Urban);
        assert_eq!(cells[0].key.gateways, 4);
        assert_eq!(cells[0].key.policy, 0);
        assert_eq!(cells[1].key.policy, 1);
        assert_eq!(cells[4].key.environment, Environment::Rural);
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(cell.index, i);
            assert_eq!(cell.config.num_gateways, cell.key.gateways);
            let scheme = [Scheme::NoRouting, Scheme::Robc][cell.key.policy];
            assert_eq!(cell.config.policy.scheme(), Some(scheme));
        }

        // The forwarding axis sits where `schemes` always sat — outside
        // α — so a schemes × alphas plan keeps its cell indices, and
        // with them the seeds derived from those indices.
        let plan = ExperimentPlan::new(tiny())
            .schemes(Scheme::ALL)
            .alphas([0.25, 0.5])
            .seed(2020);
        let cells = plan.cells();
        let policies: Vec<usize> = cells.iter().map(|c| c.key.policy).collect();
        assert_eq!(policies, [0, 0, 1, 1, 2, 2]);
        assert_eq!((cells[2].key.alpha, cells[3].key.alpha), (0.25, 0.5));
        assert_eq!(cells[3].config.policy.label(), "RCA-ETX");
        assert_eq!(plan.seed_for(0, 0), 0x81fb_f9df_c33b_f8c2);
        assert_eq!(plan.seed_for(3, 0), 0x43a4_758c_339f_5b84);
        assert_eq!(plan.seed_for(5, 1), 0x2f3e_f183_3bae_bfd8);
    }

    #[test]
    fn empty_axis_is_rejected() {
        let plan = ExperimentPlan::new(tiny()).schemes([Scheme::Robc; 0]);
        assert!(matches!(
            plan.validate(),
            Err(RunnerError::EmptyPlan { axis: "schemes" })
        ));
        let plan = ExperimentPlan::new(tiny()).fixed_seeds([]);
        assert!(matches!(
            plan.validate(),
            Err(RunnerError::EmptyPlan { axis: "seeds" })
        ));
    }

    #[test]
    fn overflowing_plan_is_rejected_before_materializing() {
        // Four axes of 2^16 entries each multiply to exactly 2^64 — one
        // past usize::MAX on 64-bit targets. The plan must refuse with a
        // typed overflow instead of wrapping and sizing an allocation
        // from the wrapped product.
        let plan = ExperimentPlan::new(tiny())
            .gateway_counts(vec![4; 1 << 16])
            .alphas(vec![0.5; 1 << 16])
            .traffics(vec![crate::TrafficModel::default(); 1 << 16])
            .disruptions(vec![crate::DisruptionPlan::default(); 1 << 16]);
        match plan.num_cells() {
            Err(ConfigError::Overflow { field }) => {
                assert_eq!(field, "experiment plan cells");
            }
            other => panic!("expected Overflow, got {other:?}"),
        }
        match plan.validate() {
            Err(RunnerError::PlanOverflow { source }) => {
                assert_eq!(source.field(), "experiment plan cells");
            }
            other => panic!("expected PlanOverflow, got {other:?}"),
        }
        // One entry fewer on a single axis fits again.
        let plan = ExperimentPlan::new(tiny())
            .gateway_counts(vec![4; (1 << 16) - 1])
            .alphas(vec![0.5; 1 << 16])
            .traffics(vec![crate::TrafficModel::default(); 1 << 16])
            .disruptions(vec![crate::DisruptionPlan::default(); 1 << 16]);
        assert_eq!(plan.num_cells().unwrap(), ((1usize << 16) - 1) << 48);
    }

    #[test]
    fn invalid_cell_is_rejected_before_running() {
        let plan = ExperimentPlan::new(tiny()).gateway_counts([4, 0]);
        match plan.validate() {
            Err(RunnerError::InvalidCell { cell, key, source }) => {
                assert_eq!(cell, 1);
                assert_eq!(key.gateways, 0);
                assert_eq!(source.field(), "num_gateways");
            }
            other => panic!("expected InvalidCell, got {other:?}"),
        }
    }

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        let plan = ExperimentPlan::new(tiny()).seed(2020).replicate(3);
        let s: Vec<u64> = (0..3).map(|rep| plan.seed_for(0, rep)).collect();
        assert_eq!(
            s,
            (0..3).map(|rep| plan.seed_for(0, rep)).collect::<Vec<_>>()
        );
        assert_ne!(s[0], s[1]);
        assert_ne!(s[1], s[2]);
        // Different cells draw different seeds for the same replicate.
        assert_ne!(plan.seed_for(0, 0), plan.seed_for(1, 0));
    }

    #[test]
    fn seed_policy_setters_compose_predictably() {
        // seed() survives a later fixed_seeds()/replicate() round-trip.
        let plan = ExperimentPlan::new(tiny())
            .seed(42)
            .fixed_seeds([5])
            .replicate(3);
        assert_eq!(plan.replications(), 3);
        assert_eq!(
            plan.seed_for(0, 0),
            ExperimentPlan::new(tiny())
                .seed(42)
                .replicate(3)
                .seed_for(0, 0)
        );
        // seed() after fixed_seeds() switches back to derived seeding,
        // keeping the replicate count.
        let plan = ExperimentPlan::new(tiny()).fixed_seeds([5, 6]).seed(42);
        assert_eq!(plan.replications(), 2);
        assert_ne!(plan.seed_for(0, 0), 5);
    }

    #[test]
    fn fixed_seeds_are_identical_across_cells() {
        let plan = ExperimentPlan::new(tiny())
            .schemes([Scheme::NoRouting, Scheme::Robc])
            .fixed_seeds([5, 6]);
        assert_eq!(plan.replications(), 2);
        assert_eq!(plan.seed_for(0, 1), 6);
        assert_eq!(plan.seed_for(1, 1), 6);
    }

    #[test]
    fn disruption_axis_multiplies_cells_and_reaches_configs() {
        use crate::{DisruptionPlan, GatewayOutage};
        use mlora_simcore::SimTime;

        let disrupted = DisruptionPlan {
            outages: vec![GatewayOutage {
                gateway: 0,
                start: SimTime::from_secs(600),
                duration: None,
            }],
            ..DisruptionPlan::default()
        };
        let plan = ExperimentPlan::new(tiny())
            .schemes([Scheme::NoRouting, Scheme::Robc])
            .disruptions([DisruptionPlan::default(), disrupted.clone()]);
        let cells = plan.cells();
        assert_eq!(cells.len(), 4);
        assert_eq!(cells[0].key.disruption, 0);
        assert!(cells[0].config.disruptions.is_empty());
        assert_eq!(cells[1].key.disruption, 1);
        assert_eq!(cells[1].config.disruptions, disrupted);
        assert_eq!(plan.validate().map_err(|e| e.to_string()), Ok(()));
        // An invalid plan entry (gateway out of range) is caught before
        // any run starts.
        let bad = ExperimentPlan::new(tiny()).disruptions([DisruptionPlan {
            outages: vec![GatewayOutage {
                gateway: 10_000,
                start: SimTime::ZERO,
                duration: None,
            }],
            ..DisruptionPlan::default()
        }]);
        assert!(matches!(
            bad.validate(),
            Err(RunnerError::InvalidCell { .. })
        ));
    }

    #[test]
    fn traffic_axis_multiplies_cells_and_reaches_configs() {
        use crate::{TrafficModel, TrafficProfile};

        let mixed = TrafficModel::mix([
            TrafficProfile::telemetry().weight(3.0),
            TrafficProfile::alerts(),
        ]);
        let plan = ExperimentPlan::new(tiny())
            .schemes([Scheme::NoRouting, Scheme::Robc])
            .traffics([TrafficModel::default(), mixed.clone()]);
        let cells = plan.cells();
        assert_eq!(cells.len(), 4);
        assert_eq!(cells[0].key.traffic, 0);
        assert!(cells[0].config.traffic.is_empty());
        assert_eq!(cells[1].key.traffic, 1);
        assert_eq!(cells[1].config.traffic, mixed);
        assert_eq!(plan.validate().map_err(|e| e.to_string()), Ok(()));
        // An invalid model in the axis is caught before any run starts.
        let bad =
            ExperimentPlan::new(tiny()).traffics([TrafficModel::mix([TrafficProfile::telemetry(
            )
            .weight(-2.0)])]);
        assert!(matches!(
            bad.validate(),
            Err(RunnerError::InvalidCell { .. })
        ));
        // An empty axis is rejected like any other.
        let empty = ExperimentPlan::new(tiny()).traffics([]);
        assert!(matches!(
            empty.validate(),
            Err(RunnerError::EmptyPlan { axis: "traffics" })
        ));
    }

    #[test]
    fn paper_gateway_counts_shape() {
        assert_eq!(PAPER_GATEWAY_COUNTS.len(), 7);
        assert_eq!(PAPER_GATEWAY_COUNTS[0], 40);
        assert_eq!(PAPER_GATEWAY_COUNTS[6], 100);
    }

    #[test]
    fn policy_axis_multiplies_cells_and_reaches_configs() {
        use mlora_core::{NoRoutingPolicy, RobcPolicy};

        let plan = ExperimentPlan::new(tiny())
            .gateway_counts([4, 9])
            .schemes([PolicySpec::of(NoRoutingPolicy), PolicySpec::of(RobcPolicy)]);
        let cells = plan.cells();
        assert_eq!(cells.len(), 4);
        assert_eq!(cells[0].key.policy, 0);
        assert_eq!(cells[1].key.policy, 1);
        assert_eq!(cells[0].config.policy.label(), "LoRaWAN");
        assert_eq!(cells[1].config.policy.label(), "ROBC");
        assert_eq!(plan.validate().map_err(|e| e.to_string()), Ok(()));
        // A wrapped built-in policy runs bit-identically to the cell
        // that names its scheme.
        let by_policy = Runner::single_threaded()
            .run(
                &ExperimentPlan::new(tiny())
                    .schemes([PolicySpec::of(RobcPolicy)])
                    .fixed_seeds([11]),
            )
            .unwrap();
        let by_scheme = Runner::single_threaded()
            .run(
                &ExperimentPlan::new(tiny())
                    .schemes([Scheme::Robc])
                    .fixed_seeds([11]),
            )
            .unwrap();
        assert_eq!(
            by_policy[0].report.single(),
            by_scheme[0].report.single(),
            "policy-spec cell diverged from the scheme cell"
        );
    }

    #[test]
    fn runner_matches_single_threaded_exactly() {
        let plan = ExperimentPlan::new(tiny())
            .gateway_counts([4, 9])
            .schemes([Scheme::NoRouting, Scheme::Robc])
            .seed(7)
            .replicate(2);
        let serial = Runner::single_threaded().run(&plan).unwrap();
        let parallel = Runner::new().workers(4).run(&plan).unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(serial.len(), 4);
        assert_eq!(serial[0].report.n(), 2);
    }

    #[test]
    fn replicated_report_statistics() {
        let plan = ExperimentPlan::new(tiny()).seed(3).replicate(3);
        let cells = Runner::new().run(&plan).unwrap();
        let cell = &cells[0];
        let mean = cell.report.mean(|r| r.delivery_ratio());
        let (lo, hi) = cell.report.ci95(|r| r.delivery_ratio());
        assert!(lo <= mean && mean <= hi);
        assert!(cell.report.std_dev(|r| r.delivery_ratio()) >= 0.0);
        // The mean lies inside the replicate envelope.
        let values: Vec<f64> = cell
            .report
            .runs()
            .iter()
            .map(|(_, r)| r.delivery_ratio())
            .collect();
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(min <= mean && mean <= max);
    }

    #[test]
    fn single_seed_cell_exposes_its_report() {
        let plan = ExperimentPlan::new(tiny()).fixed_seeds([11]);
        let cells = Runner::new().run(&plan).unwrap();
        let direct = tiny().run(11).unwrap();
        assert_eq!(*cells[0].report.single(), direct);
    }

    #[test]
    fn pool_returns_results_in_job_order_and_stops_at_the_first_panic() {
        // One worker, two, and more workers than jobs.
        for workers in [1, 2, 8] {
            assert_eq!(pool(workers, 5, |i| i * i), Ok(vec![0, 1, 4, 9, 16]));
        }
        assert_eq!(pool(3, 0, |i| i), Ok(Vec::new()));

        // The lone worker dies with job 1: jobs 2–4 are never pulled.
        let ran = AtomicUsize::new(0);
        let outcome = pool(1, 5, |i| {
            ran.fetch_add(1, Ordering::Relaxed);
            assert!(i != 1, "job {i} fell over");
        });
        assert_eq!(outcome, Err((1, "job 1 fell over".to_string())));
        assert_eq!(ran.into_inner(), 2);
    }
}
