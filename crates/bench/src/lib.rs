//! # equinox-bench
//!
//! The experiment registry that regenerates every table and figure of
//! the paper's evaluation, plus the repository's extension sweeps.
//!
//! [`EXPERIMENTS`] is the single list of experiments, in canonical
//! order. Each entry names an id, a title, a `--quick` wall-clock
//! budget and a run function returning [`Artifacts`]: the human log,
//! the `results/` files and the named gates. Everything that iterates
//! experiments goes through this table: the `regen-results` binary
//! (`cargo run --release -p equinox-bench --bin regen-results [--quick]
//! [ids…]`), `scripts/check.sh` (one `--quick` run of every id) and the
//! thread-count determinism test. Adding a sweep means adding one entry.
//!
//! See `DESIGN.md` for the per-experiment index and `EXPERIMENTS.md`
//! for paper-vs-measured numbers.

use equinox_arith::json::Json;
use equinox_core::experiments::{
    ablation, allreduce, bounds_calibration, checks, diurnal, fault_sweep, fig10, fig11, fig2,
    fig6, fig7, fig8, fig9, fitted, fleet, numerics, serve, software_sched, table1, table2,
    table3,
};
use equinox_core::ExperimentScale;
use std::fmt::{Display, Write as _};
use std::time::Instant;

/// What one experiment produced, rendered but not yet emitted.
#[derive(Debug, Default)]
pub struct Artifacts {
    /// The human log printed under the experiment's banner.
    pub log: String,
    /// `results/` payloads as `(file name, content)`.
    pub files: Vec<(String, String)>,
    /// Named gates as `(name, holds)`; each one that does not hold
    /// fails the run as `<id>: <name>`.
    pub gates: Vec<(String, bool)>,
}

impl Artifacts {
    /// Artifacts whose log starts with `shown` and a newline.
    fn with_log(shown: impl Display) -> Self {
        Artifacts { log: format!("{shown}\n"), ..Artifacts::default() }
    }

    fn file(mut self, name: impl Into<String>, content: String) -> Self {
        self.files.push((name.into(), content));
        self
    }

    /// Renders `value` into `results/<name>`. A value that does not
    /// render (it holds a NaN or ±∞) writes no file and fails the gate
    /// `results/<name>: <error>` instead.
    fn json(self, name: &str, value: Json) -> Self {
        match value.render() {
            Ok(text) => self.file(name, text),
            Err(e) => self.gate(format!("results/{name}: {e}"), false),
        }
    }

    fn gate(mut self, name: impl Into<String>, holds: bool) -> Self {
        self.gates.push((name.into(), holds));
        self
    }
}

/// One registry entry.
#[derive(Debug)]
pub struct Experiment {
    /// The id `regen-results` selects it by, matched exactly.
    pub id: &'static str,
    /// The banner title.
    pub title: &'static str,
    /// Wall-clock budget under `--quick`, seconds. Sized ~3× the
    /// observed quick runtime, so only a grid that accidentally
    /// regained full scale trips it.
    pub quick_budget_s: f64,
    /// Runs the experiment at a scale.
    pub run: fn(ExperimentScale) -> Artifacts,
}

/// Every experiment, in the canonical order logs print and files are
/// written in.
pub static EXPERIMENTS: [Experiment; 21] = [
    Experiment {
        id: "fig2",
        title: "hbfp8 vs fp32 convergence (Figure 2)",
        quick_budget_s: 240.0,
        run: run_fig2,
    },
    Experiment {
        id: "fig6",
        title: "design-space scatter (Figure 6)",
        quick_budget_s: 60.0,
        run: run_fig6,
    },
    Experiment {
        id: "table1",
        title: "Pareto-optimal designs (Table 1)",
        quick_budget_s: 60.0,
        run: run_table1,
    },
    Experiment {
        id: "fig7",
        title: "inference tail latency vs throughput (Figure 7)",
        quick_budget_s: 90.0,
        run: run_fig7,
    },
    Experiment {
        id: "fig8",
        title: "cycle breakdown (Figure 8)",
        quick_budget_s: 60.0,
        run: run_fig8,
    },
    Experiment {
        id: "fig9",
        title: "training throughput vs inference load (Figure 9)",
        quick_budget_s: 90.0,
        run: run_fig9,
    },
    Experiment {
        id: "table2",
        title: "workload sensitivity (Table 2, + MLP/Transformer extension)",
        quick_budget_s: 90.0,
        run: run_table2,
    },
    Experiment {
        id: "table3",
        title: "area and power (Table 3)",
        quick_budget_s: 15.0,
        run: run_table3,
    },
    Experiment {
        id: "fig10",
        title: "scheduling policies (Figure 10)",
        quick_budget_s: 90.0,
        run: run_fig10,
    },
    Experiment {
        id: "fig11",
        title: "adaptive batching (Figure 11)",
        quick_budget_s: 120.0,
        run: run_fig11,
    },
    Experiment {
        id: "software",
        title: "software vs hardware scheduling (§6 text)",
        quick_budget_s: 60.0,
        run: run_software,
    },
    Experiment {
        id: "diurnal",
        title: "training for free over a day (extension)",
        quick_budget_s: 60.0,
        run: run_diurnal,
    },
    Experiment {
        id: "ablation",
        title: "design-choice ablations (extensions)",
        quick_budget_s: 120.0,
        run: run_ablation,
    },
    Experiment {
        id: "fault",
        title: "fault injection × graceful degradation (extension)",
        quick_budget_s: 120.0,
        run: run_fault,
    },
    Experiment {
        id: "fleet",
        title: "fleet size × routing policy × load (extension)",
        quick_budget_s: 120.0,
        run: run_fleet,
    },
    Experiment {
        id: "allreduce",
        title: "gradient all-reduce: harvest-vs-sync frontier (extension)",
        quick_budget_s: 120.0,
        run: run_allreduce,
    },
    Experiment {
        id: "serve",
        title: "admission control × overload × autoscaling (extension)",
        quick_budget_s: 120.0,
        run: run_serve,
    },
    Experiment {
        id: "bounds",
        title: "static bound calibration against the cycle-accurate sim (extension)",
        quick_budget_s: 30.0,
        run: run_bounds,
    },
    Experiment {
        id: "fitted",
        title: "fitted distributional surrogate: tables + calibration gate (extension)",
        quick_budget_s: 120.0,
        run: run_fitted,
    },
    Experiment {
        id: "numerics",
        title: "HBFP numerics-pass calibration against the executed fixed-point kernels (extension)",
        quick_budget_s: 30.0,
        run: run_numerics,
    },
    Experiment {
        id: "checks",
        title: "equinox-check over the paper family and the drivers' configurations",
        quick_budget_s: 180.0,
        run: run_checks,
    },
];

/// A `regen-results` invocation: the scale and the selected entries,
/// in canonical order.
#[derive(Debug)]
pub struct Selection {
    /// `Quick` under `--quick`, else `Full`.
    pub scale: ExperimentScale,
    /// Every entry when no id was given.
    pub experiments: Vec<&'static Experiment>,
}

/// Parses `regen-results` arguments: `--quick` and exact ids. Any other
/// argument is an error naming it.
pub fn parse_args(args: &[String]) -> Result<Selection, String> {
    let mut scale = ExperimentScale::Full;
    let mut ids = Vec::new();
    for arg in args {
        if arg == "--quick" {
            scale = ExperimentScale::Quick;
        } else if EXPERIMENTS.iter().any(|e| e.id == arg) {
            ids.push(arg.as_str());
        } else {
            return Err(format!("unknown argument `{arg}`"));
        }
    }
    let experiments =
        EXPERIMENTS.iter().filter(|e| ids.is_empty() || ids.contains(&e.id)).collect();
    Ok(Selection { scale, experiments })
}

/// One experiment's run.
#[derive(Debug)]
pub struct Outcome {
    /// The entry that ran.
    pub experiment: &'static Experiment,
    /// What it produced.
    pub artifacts: Artifacts,
    /// Its wall clock, seconds. Timing data: never part of an artifact
    /// other than `results/bench_timings.json`.
    pub wall_s: f64,
}

impl Outcome {
    /// Whether the run took no longer than its `--quick` budget.
    pub fn within_budget(&self) -> bool {
        self.wall_s <= self.experiment.quick_budget_s
    }
}

/// Runs `experiments` concurrently on the `equinox-par` pool and
/// returns their outcomes in the given order, so whatever is emitted
/// from them is byte-identical at any thread count.
pub fn run(experiments: &[&'static Experiment], scale: ExperimentScale) -> Vec<Outcome> {
    equinox_par::parallel_map(experiments.to_vec(), |experiment| {
        let start = Instant::now();
        let artifacts = (experiment.run)(scale);
        Outcome { experiment, artifacts, wall_s: start.elapsed().as_secs_f64() }
    })
}

/// Every reason a run fails: each gate that does not hold, as
/// `<id>: <gate>`, and under `Quick` each experiment over its budget.
pub fn failures(outcomes: &[Outcome], scale: ExperimentScale) -> Vec<String> {
    let mut out = Vec::new();
    for o in outcomes {
        let id = o.experiment.id;
        for (gate, holds) in &o.artifacts.gates {
            if !holds {
                out.push(format!("{id}: {gate}"));
            }
        }
        if scale == ExperimentScale::Quick && !o.within_budget() {
            out.push(format!(
                "{id}: --quick run took {:.1}s, over its {:.0}s smoke budget",
                o.wall_s, o.experiment.quick_budget_s
            ));
        }
    }
    out
}

fn run_fig2(scale: ExperimentScale) -> Artifacts {
    let fig = fig2::run(scale);
    let mut csv = String::from("task,encoding,epoch,train_loss,val_metric\n");
    for (task, curves) in [
        ("classification", &fig.classification),
        ("language", &fig.language),
        ("lstm_bptt", &fig.lstm),
    ] {
        for c in curves {
            for p in &c.points {
                let _ = writeln!(
                    csv,
                    "{task},{},{},{},{}",
                    c.label, p.epoch, p.train_loss, p.val_metric
                );
            }
        }
    }
    // At Quick scale every classifier ends at the same error, so the
    // first gate binds only at Full (scripts/check.sh's Full step).
    Artifacts::with_log(&fig)
        .file("fig2_convergence.csv", csv)
        .gate(
            "hbfp8_error_within_0.01_of_fp32",
            fig.classification_gap() <= fig2::MAX_ERROR_GAP,
        )
        .gate(
            "hbfp8_lm_perplexity_within_2pct_of_fp32",
            fig.perplexity_gap() <= fig2::MAX_PERPLEXITY_GAP,
        )
        .gate(
            "hbfp8_lstm_perplexity_within_2pct_of_fp32",
            fig.lstm_perplexity_gap() <= fig2::MAX_PERPLEXITY_GAP,
        )
}

fn run_fig6(_: ExperimentScale) -> Artifacts {
    let fig = fig6::run();
    Artifacts::with_log(&fig)
        .file("fig6a_hbfp8.csv", fig.hbfp8_csv)
        .file("fig6b_bfloat16.csv", fig.bf16_csv)
}

fn run_table1(_: ExperimentScale) -> Artifacts {
    let table = table1::run();
    Artifacts::with_log(&table).file("table1_pareto.txt", table.to_string())
}

fn run_fig7(scale: ExperimentScale) -> Artifacts {
    let mut out = Artifacts::default();
    for (panel, encoding) in
        [("a", equinox_arith::Encoding::Hbfp8), ("b", equinox_arith::Encoding::Bfloat16)]
    {
        let fig = fig7::run(encoding, scale);
        let _ = writeln!(out.log, "{fig}");
        let mut csv = String::from("config,load,inference_tops,p99_ms\n");
        for s in &fig.series {
            for p in &s.points {
                let _ = writeln!(csv, "{},{},{},{}", s.name, p.load, p.inference_tops, p.p99_ms);
            }
        }
        out = out.file(format!("fig7{panel}_{encoding}.csv"), csv);
    }
    out
}

fn run_fig8(scale: ExperimentScale) -> Artifacts {
    let fig = fig8::run(scale);
    let mut csv = String::from("load,config,working,dummy,idle,other\n");
    for b in &fig.bars {
        let _ = writeln!(
            csv,
            "{},{},{},{},{},{}",
            b.load,
            if b.with_training { "Inf+Train" } else { "Inf" },
            b.breakdown.working,
            b.breakdown.dummy,
            b.breakdown.idle,
            b.breakdown.other
        );
    }
    Artifacts::with_log(&fig).file("fig8_breakdown.csv", csv)
}

fn run_fig9(scale: ExperimentScale) -> Artifacts {
    let fig = fig9::run(scale);
    let mut out = Artifacts::with_log(&fig);
    for name in ["Equinox_min", "Equinox_50us", "Equinox_500us", "Equinox_none"] {
        if let Some(frac) = fig.peak_fraction(name) {
            let _ = writeln!(
                out.log,
                "  {name}: {:.0}% of the dedicated-accelerator bound",
                frac * 100.0
            );
        }
    }
    let mut csv = String::from("config,load,training_tops\n");
    for s in &fig.series {
        for p in &s.points {
            let _ = writeln!(csv, "{},{},{}", s.name, p.load, p.training_tops);
        }
    }
    out.file("fig9_training.csv", csv)
}

fn run_table2(scale: ExperimentScale) -> Artifacts {
    let table = table2::run(scale);
    Artifacts::with_log(&table).file("table2_workloads.txt", table.to_string())
}

fn run_table3(_: ExperimentScale) -> Artifacts {
    let report = table3::run();
    let mut out = Artifacts::with_log(&report);
    let (ca, cp) = report.controller_overhead();
    let (ea, ep) = report.encoding_overhead();
    let _ = writeln!(
        out.log,
        "\n  controller overhead: {:.2}% area, {:.2}% power (paper: <1%)",
        ca * 100.0,
        cp * 100.0
    );
    let _ = writeln!(
        out.log,
        "  encoding overhead:   {:.1}% area, {:.1}% power (paper: 4% / 13%)",
        ea * 100.0,
        ep * 100.0
    );
    out.file("table3_area_power.txt", report.to_string())
}

fn run_fig10(scale: ExperimentScale) -> Artifacts {
    let fig = fig10::run(scale);
    let mut csv = String::from("policy,load,inference_tops,p99_ms,training_tops\n");
    for s in &fig.series {
        for p in &s.points {
            let _ = writeln!(
                csv,
                "{},{},{},{},{}",
                s.name, p.load, p.inference_tops, p.p99_ms, p.training_tops
            );
        }
    }
    Artifacts::with_log(&fig).file("fig10_scheduling.csv", csv)
}

fn run_fig11(scale: ExperimentScale) -> Artifacts {
    let fig = fig11::run(scale);
    let mut csv = String::from("panel,series,load,inference_tops,p99_ms,training_tops\n");
    for (panel, series) in [("a", &fig.panel_a), ("b", &fig.panel_b), ("c", &fig.panel_c)] {
        for s in series {
            for p in &s.points {
                let _ = writeln!(
                    csv,
                    "{panel},{},{},{},{},{}",
                    s.name, p.load, p.inference_tops, p.p99_ms, p.training_tops
                );
            }
        }
    }
    Artifacts::with_log(&fig).file("fig11_batching.csv", csv)
}

fn run_software(scale: ExperimentScale) -> Artifacts {
    let study = software_sched::run(scale);
    Artifacts::with_log(&study).file("software_scheduling.txt", study.to_string())
}

fn run_diurnal(scale: ExperimentScale) -> Artifacts {
    let d = diurnal::run(scale);
    Artifacts::with_log(&d).file("diurnal.txt", d.to_string())
}

fn run_ablation(scale: ExperimentScale) -> Artifacts {
    let a = ablation::run(scale);
    Artifacts::with_log(&a).file("ablations.txt", a.to_string())
}

/// Gates: the no-fault baseline meets the SLO, and no degradation
/// policy fails the equinox-check lints.
fn run_fault(scale: ExperimentScale) -> Artifacts {
    let sweep = fault_sweep::run(scale);
    Artifacts::with_log(&sweep)
        .json("fault_sweep.json", sweep.to_json())
        .gate("baseline_is_clean", sweep.baseline_is_clean())
        .gate("lints_clean", !sweep.has_check_errors())
}

/// Gate: training-aware routing harvests strictly more fleet-wide free
/// epochs than round-robin at the moderate load, on every fleet size,
/// without violating the inference SLO.
fn run_fleet(scale: ExperimentScale) -> Artifacts {
    let sweep = fleet::run(scale);
    Artifacts::with_log(&sweep)
        .json("fleet_sweep.json", sweep.to_json())
        .gate("training_aware_wins", sweep.training_aware_wins())
}

/// Gates: the topology × schedule × load frontier is complete, every
/// fabric completes its round with positive synced epochs at the
/// moderate load, the paid tier is untouched at the one-big-switch
/// reference cells, every link conserves bytes, and the EQX09xx lints
/// are clean.
fn run_allreduce(scale: ExperimentScale) -> Artifacts {
    let sweep = allreduce::run(scale);
    Artifacts::with_log(&sweep)
        .json("allreduce_sweep.json", sweep.to_json())
        .gate("frontier_complete", sweep.frontier_complete())
        .gate("synced_positive_at_moderate", sweep.synced_positive_at_moderate())
        .gate("reference_slo_clean", sweep.reference_slo_clean())
        .gate("conserved", sweep.conserved())
        .gate("lints_clean", sweep.lints_clean())
}

/// Gates: under 120 % offered load (clean and faulted) the priority
/// policy holds the paid tier's p999 inside the deadline while
/// admit-all violates it, sheds free traffic first, autoscales (joins
/// and drains), loses no request in any cell, reaches trace scale, and
/// keeps the EQX07xx serving lints clean.
fn run_serve(scale: ExperimentScale) -> Artifacts {
    let sweep = serve::run(scale);
    Artifacts::with_log(&sweep)
        .json("serve_sweep.json", sweep.to_json())
        .gate("priority_protects_paid", sweep.priority_protects_paid())
        .gate("free_is_shed_first", sweep.free_is_shed_first())
        .gate("autoscale_drains_cleanly", sweep.autoscale_drains_cleanly())
        .gate("requests_conserved", sweep.requests_conserved())
        .gate("trace_scale_reached", sweep.trace_scale_reached())
        .gate("lints_clean", sweep.lints_clean())
}

/// Gates, one per (paper model × lowering) cell: the dispatcher-
/// accounted cycles land inside the static `[lower, upper]`, the bounds
/// stay tight (upper/lower ≤ 4×), and the discrete-event engine probes
/// at the fig10/fig11 operating points agree with the static accounting.
fn run_bounds(scale: ExperimentScale) -> Artifacts {
    let cal = bounds_calibration::run(scale);
    let mut out = Artifacts::with_log(&cal)
        .json("bounds_calibration.json", cal.to_json())
        .gate("all_calibrated", cal.all_calibrated());
    for c in &cal.cells {
        out = out.gate(format!("{}/{} calibrated", c.model, c.mode), c.passes());
    }
    out
}

/// Gates: every fitted sample inside the static envelope, measured
/// service contained, and every sufficiently populated held-out
/// contention bucket within the relative-error ceiling, named per model
/// and per (model, bucket).
fn run_fitted(scale: ExperimentScale) -> Artifacts {
    // The process-wide fit, shared with the scaled fleet/serve cells.
    let cal = fitted::FittedCalibration::shared(scale);
    let mut out = Artifacts::with_log(cal)
        .json("fitted_tables.json", cal.to_json())
        .gate("all_calibrated", cal.all_calibrated());
    for f in &cal.fits {
        out = out.gate(format!("{} calibrated", f.model), f.passes());
        for b in &f.buckets {
            out = out.gate(format!("{}/bucket{} calibrated", f.model, b.bucket), b.passes());
        }
    }
    out
}

/// Gates, one per (paper model × lowering) cell: the EQX08xx pass is
/// error-free and every reduction chain it marked safe survives the
/// executed-arithmetic probes (adversarial, tightness and seeded random)
/// without saturating.
fn run_numerics(scale: ExperimentScale) -> Artifacts {
    let sweep = numerics::run(scale);
    let mut out = Artifacts::with_log(&sweep)
        .json("numerics_sweep.json", sweep.to_json())
        .gate("all_calibrated", sweep.all_calibrated());
    for c in &sweep.cells {
        out = out.gate(format!("{}/{} calibrated", c.model, c.mode), c.passes());
    }
    out
}

/// The analyzer sweep over the Table 1 family of both encodings, and
/// one verdict per published driver merged from the sweep's reports,
/// so the static-analysis state of every published number is recorded.
/// Gates: each sweep report but the installation fits, and each
/// verdict, is free of error-severity diagnostics.
fn run_checks(_: ExperimentScale) -> Artifacts {
    let sweep = checks::run();
    let mut out = Artifacts::with_log(&sweep);
    for (gate, holds) in sweep.gates() {
        out = out.gate(gate, holds);
    }
    out = out.json("equinox_check.json", sweep.to_json());
    let verdicts = sweep.driver_reports();
    for (driver, report) in &verdicts {
        let _ = writeln!(
            out.log,
            "  {driver}: {} error(s), {} warning(s)",
            report.error_count(),
            report.warning_count()
        );
        out = out.gate(format!("{driver} has no errors"), report.error_count() == 0);
    }
    let reports = verdicts.iter().map(|(driver, report)| {
        Json::object([("driver", (*driver).into()), ("report", report.to_json())])
    });
    let json = Json::object([("tool", "regen-results".into()), ("reports", Json::array(reports))]);
    out.json("driver_checks.json", json)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn ids_are_unique() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert!(EXPERIMENTS[..i].iter().all(|p| p.id != e.id), "duplicate id {}", e.id);
        }
    }

    #[test]
    fn ids_match_exactly_in_canonical_order() {
        let (first, later) = (EXPERIMENTS[0].id, EXPERIMENTS[5].id);
        let sel = parse_args(&args(&[later, "--quick", first])).unwrap();
        assert_eq!(sel.scale, ExperimentScale::Quick);
        let ids: Vec<&str> = sel.experiments.iter().map(|e| e.id).collect();
        assert_eq!(ids, [first, later]);
        let all = parse_args(&[]).unwrap();
        assert_eq!(all.scale, ExperimentScale::Full);
        assert_eq!(all.experiments.len(), EXPERIMENTS.len());
        // An id with a suffix is not a prefix match for the id.
        let extended = EXPERIMENTS.iter().map(|e| format!("{}9", e.id));
        for bad in extended.chain(["nope", "--quik", ""].map(String::from)) {
            let err = parse_args(std::slice::from_ref(&bad)).unwrap_err();
            assert!(err.contains(&format!("`{bad}`")), "{err}");
        }
    }

    #[test]
    fn a_false_gate_fails_the_run_by_name() {
        let outcome = |gates: Vec<(String, bool)>, wall_s| Outcome {
            experiment: &EXPERIMENTS[0],
            artifacts: Artifacts { gates, ..Artifacts::default() },
            wall_s,
        };
        let id = EXPERIMENTS[0].id;
        let clean = [outcome(vec![("holds".into(), true)], 0.0)];
        assert!(failures(&clean, ExperimentScale::Quick).is_empty());
        let failing = [outcome(vec![("holds".into(), true), ("broken".into(), false)], 0.0)];
        assert_eq!(failures(&failing, ExperimentScale::Full), [format!("{id}: broken")]);
        // Budgets apply under Quick only.
        let slow = [outcome(Vec::new(), EXPERIMENTS[0].quick_budget_s + 1.0)];
        assert!(failures(&slow, ExperimentScale::Full).is_empty());
        let over = failures(&slow, ExperimentScale::Quick);
        assert_eq!(over.len(), 1);
        assert!(over[0].starts_with(&format!("{id}: --quick run took")), "{over:?}");
    }

    #[test]
    fn a_non_finite_artifact_writes_no_file_and_fails_the_run_by_name() {
        let cell = |p99_ms: f64| Json::object([("p99_ms", p99_ms.into())]);
        let broken = Json::object([("cells", Json::array([cell(1.5), cell(f64::NAN)]))]);
        let artifacts =
            Artifacts::default().json("broken.json", broken).json("fine.json", cell(1.5));
        assert_eq!(artifacts.files, [("fine.json".to_string(), r#"{"p99_ms":1.5}"#.to_string())]);
        let outcome = Outcome { experiment: &EXPERIMENTS[0], artifacts, wall_s: 0.0 };
        let id = EXPERIMENTS[0].id;
        assert_eq!(
            failures(&[outcome], ExperimentScale::Full),
            [format!("{id}: results/broken.json: non-finite number NaN at cells[1].p99_ms")]
        );
    }
}
