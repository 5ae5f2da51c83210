//! Extension: fault injection × graceful degradation (§5's QoS claim
//! under stress).
//!
//! The paper argues training must have "no effect on inference QoS"
//! (§5) but only evaluates fault-free Poisson traffic. This experiment
//! stresses that guarantee: a grid of fault scenarios (traffic bursts,
//! DRAM-bandwidth throttling, transient batch corruption, stalled
//! batch formation) crossed with graceful-degradation policies
//! (training preemption, adaptive batch shrinking, admission-control
//! shedding, bounded retry) on Equinox_500µs, each run held against a
//! per-request deadline SLO. The output quantifies the QoS cost of
//! each fault, how much each policy buys back, and what the policy
//! costs in harvested training throughput.
//!
//! Regenerated into `results/fault_sweep.json` by
//! `cargo run -p equinox-bench --bin regen-results -- fault`; each
//! policy's configuration is vetted by the `equinox-check` degradation
//! lints and the verdicts are embedded in the JSON.

use crate::accelerator::{Equinox, RunOptions};
use crate::experiments::ExperimentScale;
use equinox_arith::json::Json;
use equinox_arith::Encoding;
use equinox_isa::models::ModelSpec;
use equinox_model::LatencyConstraint;
use equinox_sim::{DegradationPolicy, FaultScenario, SloSpec};

/// Offered inference load for every cell (the paper's colocated
/// operating point, §6).
const SWEEP_LOAD: f64 = 0.6;

/// Per-request deadline as a multiple of the batch service time. The
/// no-fault baseline must complete every request inside this bound;
/// 16× leaves headroom for queueing behind non-preemptible training
/// work at 60 % load while still being tripped by every fault window.
const DEADLINE_X: f64 = 16.0;

/// One (scenario, policy) cell of the sweep.
#[derive(Debug, Clone)]
pub struct FaultCell {
    /// Fault scenario name.
    pub scenario: String,
    /// Degradation policy name.
    pub policy: String,
    /// Requests completed.
    pub completed: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// SLO violations (deadline misses + shed + dropped).
    pub violations: usize,
    /// Violations over measured requests.
    pub violation_rate: f64,
    /// 99.9th-percentile latency, ms.
    pub p999_ms: f64,
    /// Harvested training throughput, TOp/s.
    pub training_tops: f64,
    /// Training throughput lost vs. the same policy's no-fault cell
    /// (fraction, 0 for the baseline scenario itself).
    pub training_loss: f64,
    /// Cycles to drain back to ≤ 1 batch after the last disturbance
    /// window, in ms; `None` for windowless scenarios.
    pub recovery_ms: Option<f64>,
    /// Whether the queue drained after the last disturbance.
    pub recovered: bool,
    /// Batches corrupted / retried / dropped by injected corruption.
    pub corrupted: usize,
    /// Corrupted batches re-executed.
    pub retried: usize,
    /// Corrupted batches dropped after exhausting retries.
    pub dropped: usize,
    /// Deepest the inference queue got, requests.
    pub peak_queue: usize,
}

/// One policy's `equinox-check` verdict.
#[derive(Debug, Clone)]
pub struct PolicyCheck {
    /// Degradation policy name.
    pub policy: String,
    /// The configuration-lint report (degradation lints included).
    pub report: equinox_check::Report,
}

/// The full sweep result.
#[derive(Debug, Clone)]
pub struct FaultSweep {
    /// The per-request deadline every run was held against, ms.
    pub deadline_ms: f64,
    /// All (scenario × policy) cells, scenario-major.
    pub cells: Vec<FaultCell>,
    /// `equinox-check` verdicts for each policy configuration.
    pub checks: Vec<PolicyCheck>,
}

/// The degradation policies swept, scaled to batch size `n`.
fn policies(n: usize) -> Vec<(&'static str, DegradationPolicy)> {
    vec![
        ("none", DegradationPolicy::none()),
        ("preemptive", DegradationPolicy::preemptive(n)),
        ("shedding", DegradationPolicy::shedding(n)),
        ("full", DegradationPolicy::full(n)),
    ]
}

/// The fault scenarios swept, with windows placed inside `horizon`.
fn scenarios(horizon: u64) -> Vec<FaultScenario> {
    let h = |frac: f64| (horizon as f64 * frac) as u64;
    vec![
        FaultScenario::baseline(),
        // A 4× traffic spike over a fifth of the run.
        FaultScenario::named("burst_4x").with_burst(h(0.30), h(0.50), 4.0),
        // DRAM degraded to 35 % bandwidth (thermal throttling / faulty
        // channel) over a third of the run: training's DRAM appetite
        // collides with inference weight streaming.
        FaultScenario::named("dram_throttle").with_throttle(h(0.30), h(0.60), 0.35),
        // Transient PE/tile faults corrupting 5 % of batches.
        FaultScenario::named("corruption").with_corruption(0.05, 0xFA11),
        // Batch formation stalled outright (front-end outage) for 5 %
        // of the run.
        FaultScenario::named("stall").with_stall(h(0.40), h(0.45)),
    ]
}

/// Runs the sweep on Equinox_500µs serving the reference LSTM.
pub fn run(scale: ExperimentScale) -> FaultSweep {
    let eq = Equinox::build(Encoding::Hbfp8, LatencyConstraint::Micros(500))
        .expect("the 500 µs design exists");
    let model = ModelSpec::lstm_2048_25();
    let timing = eq.compile(&model).expect("reference workload compiles");
    let n = eq.dims().n;
    // Fixed horizon (windows are placed relative to it): enough batch
    // intervals that the fault windows each cover many batches.
    let intervals: u64 = match scale {
        ExperimentScale::Quick => 150,
        ExperimentScale::Full => 1000,
    };
    let horizon = intervals * timing.total_cycles;
    let deadline_s = DEADLINE_X * timing.service_time_s(eq.freq_hz());
    let slo = SloSpec::new(deadline_s).expect("positive deadline");

    let mut cells = Vec::new();
    let mut baseline_tops: Vec<(String, f64)> = Vec::new();
    for scenario in scenarios(horizon) {
        for (policy_name, policy) in policies(n) {
            let opts = RunOptions {
                degradation: Some(policy),
                // The horizon is pinned via min_horizon_cycles so the
                // scenario windows land where the grid placed them.
                target_requests: 1,
                min_horizon_cycles: horizon,
                ..RunOptions::colocated(SWEEP_LOAD)
            };
            let report = eq
                .run_scenario(&timing, &opts, &scenario, Some(slo))
                .expect("fault scenarios complete without panicking");
            let s = report.slo.as_ref().expect("SLO monitor was attached");
            let tops = report.training_tops();
            if scenario.is_fault_free() {
                baseline_tops.push((policy_name.to_string(), tops));
            }
            let base = baseline_tops
                .iter()
                .find(|(p, _)| p == policy_name)
                .map(|(_, t)| *t)
                .unwrap_or(tops);
            cells.push(FaultCell {
                scenario: scenario.name.clone(),
                policy: policy_name.to_string(),
                completed: report.completed_requests,
                shed: report.shed_requests,
                violations: s.total_violations(),
                violation_rate: s.violation_rate(),
                p999_ms: s.p999_s * 1e3,
                training_tops: tops,
                training_loss: if base > 0.0 { (1.0 - tops / base).max(0.0) } else { 0.0 },
                recovery_ms: s.recovery_cycles.map(|c| c / eq.freq_hz() * 1e3),
                recovered: s.recovered,
                corrupted: s.corrupted_batches,
                retried: s.retried_batches,
                dropped: s.dropped_batches,
                peak_queue: s.peak_queue_depth,
            });
        }
    }
    let checks = policies(n)
        .into_iter()
        .map(|(name, policy)| {
            let mut config = eq.config().clone();
            config.degradation = policy;
            let mut report = equinox_check::Report::new(format!("degradation/{name}"));
            report.extend(equinox_check::config::analyze(&config));
            PolicyCheck { policy: name.to_string(), report }
        })
        .collect();
    FaultSweep { deadline_ms: deadline_s * 1e3, cells, checks }
}

impl FaultSweep {
    /// The cell for (`scenario`, `policy`), if present.
    pub fn cell(&self, scenario: &str, policy: &str) -> Option<&FaultCell> {
        self.cells.iter().find(|c| c.scenario == scenario && c.policy == policy)
    }

    /// True if every no-fault baseline cell recorded zero SLO
    /// violations — the gate the CI smoke job holds the tree to.
    pub fn baseline_is_clean(&self) -> bool {
        self.cells
            .iter()
            .filter(|c| c.scenario == "baseline")
            .all(|c| c.violations == 0)
    }

    /// True if any policy configuration failed the `equinox-check`
    /// degradation lints outright.
    pub fn has_check_errors(&self) -> bool {
        self.checks.iter().any(|c| c.report.has_errors())
    }

    /// The sweep as a JSON document. Embeds the `equinox-check`
    /// verdicts alongside the measured grid.
    pub fn to_json(&self) -> Json {
        let cells = self.cells.iter().map(|c| {
            Json::object([
                ("scenario", c.scenario.as_str().into()),
                ("policy", c.policy.as_str().into()),
                ("completed", c.completed.into()),
                ("shed", c.shed.into()),
                ("violations", c.violations.into()),
                ("violation_rate", c.violation_rate.into()),
                ("p999_ms", c.p999_ms.into()),
                ("training_tops", c.training_tops.into()),
                ("training_loss", c.training_loss.into()),
                ("recovery_ms", c.recovery_ms.into()),
                ("recovered", c.recovered.into()),
                ("corrupted", c.corrupted.into()),
                ("retried", c.retried.into()),
                ("dropped", c.dropped.into()),
                ("peak_queue", c.peak_queue.into()),
            ])
        });
        let checks = self.checks.iter().map(|c| {
            Json::object([("policy", c.policy.as_str().into()), ("report", c.report.to_json())])
        });
        Json::object([
            ("deadline_ms", self.deadline_ms.into()),
            ("baseline_clean", self.baseline_is_clean().into()),
            ("cells", Json::array(cells)),
            ("checks", Json::array(checks)),
        ])
    }
}

impl std::fmt::Display for FaultSweep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Fault × degradation sweep on Equinox_500us (LSTM @ {:.0}% load, deadline {:.2} ms):",
            SWEEP_LOAD * 100.0,
            self.deadline_ms
        )?;
        writeln!(
            f,
            "  {:<14} {:<11} {:>9} {:>6} {:>6} {:>9} {:>9} {:>10}",
            "Scenario", "Policy", "Complete", "Shed", "Viol", "Rate", "p999(ms)", "Train(TOp/s)"
        )?;
        for c in &self.cells {
            writeln!(
                f,
                "  {:<14} {:<11} {:>9} {:>6} {:>6} {:>8.1}% {:>9.2} {:>10.1}",
                c.scenario,
                c.policy,
                c.completed,
                c.shed,
                c.violations,
                c.violation_rate * 100.0,
                c.p999_ms,
                c.training_tops,
            )?;
        }
        for c in &self.checks {
            write!(
                f,
                "  check[{}]: {} error(s), {} warning(s)",
                c.policy,
                c.report.error_count(),
                c.report.warning_count()
            )?;
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// One Quick sweep, shared by every test in this module.
    fn sweep() -> &'static FaultSweep {
        static SWEEP: OnceLock<FaultSweep> = OnceLock::new();
        SWEEP.get_or_init(|| run(ExperimentScale::Quick))
    }

    #[test]
    fn grid_covers_scenarios_by_policies() {
        let s = sweep();
        assert_eq!(s.cells.len(), 5 * 4, "5 scenarios × 4 policies");
        let scenarios: std::collections::BTreeSet<_> =
            s.cells.iter().map(|c| c.scenario.as_str()).collect();
        assert_eq!(scenarios.len(), 5);
        // ≥ 4 fault scenarios beyond the baseline.
        assert!(scenarios.iter().filter(|n| **n != "baseline").count() >= 4);
    }

    #[test]
    fn baseline_holds_the_slo_under_every_policy() {
        let s = sweep();
        assert!(s.baseline_is_clean(), "{s}");
        for c in s.cells.iter().filter(|c| c.scenario == "baseline") {
            assert!(c.recovered, "{}: baseline must end drained", c.policy);
            assert_eq!(c.shed, 0, "{}: baseline must not shed", c.policy);
        }
    }

    #[test]
    fn faults_hurt_and_degradation_helps() {
        let s = sweep();
        // An unmitigated 4× burst violates the SLO.
        let unmitigated = s.cell("burst_4x", "none").unwrap();
        assert!(unmitigated.violations > 0, "{s}");
        // Corruption with no retry policy drops batches; with bounded
        // retries the drops disappear.
        let dropped = s.cell("corruption", "none").unwrap();
        assert!(dropped.corrupted > 0 && dropped.dropped > 0, "{s}");
        let retried = s.cell("corruption", "full").unwrap();
        assert!(retried.retried > 0 && retried.dropped == 0, "{s}");
    }

    #[test]
    fn check_verdicts_are_embedded_and_policy_configs_lint_clean() {
        let s = sweep();
        assert_eq!(s.checks.len(), 4);
        assert!(!s.has_check_errors(), "{s}");
        let json = s.to_json().render().unwrap();
        assert!(json.contains("\"checks\":["));
        assert!(json.contains("\"policy\":\"shedding\""));
    }
}
