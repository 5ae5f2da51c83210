//! The run loop shared by every workload: repeated set-up, a measured
//! phase of whole passes over the workload's unit grid with the speed
//! probe between them, output checks, the determinism re-run, and the
//! metrics derived from all of it.

use crate::json::Value;
use crate::speed::{Probe, NOMINAL_S};
use crate::trace::{covered_ns, self_seconds, Span, SpanCtx, Tracer, STRUCTURAL};
use crate::{stats, END_TO_END, PER_LAYER};
use equinox_sim::loadgen::split_seed;
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

/// Set-up runs this many times before the first pass (outside smoke
/// scale); `setup_s` is the median of every set-up sample.
const MIN_SETUP_REPS: usize = 3;

/// Time spent repeating a cheap set-up after each pass.
const SETUP_PER_PASS: Duration = Duration::from_millis(30);

/// Upper bound on set-up samples after one pass.
const MAX_SETUPS_PER_PASS: usize = 20;

/// A set-up sample after a pass averages back-to-back set-ups over at
/// least this long, so that a set-up of a microsecond is not lost in
/// timer and cache noise. Traced runs time set-ups one by one.
const SETUP_SAMPLE: Duration = Duration::from_millis(2);

/// Which unit of the run a call is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitId {
    /// The run's `--seed`.
    pub run_seed: u64,
    /// Pass number, from 0.
    pub pass: usize,
    /// Position in the pass, from 0.
    pub index: usize,
    /// Units per pass.
    pub per_pass: usize,
}

impl UnitId {
    /// This unit's own input seed: stream `pass × per_pass + index` of
    /// the run seed, by the workspace's `split_seed` convention.
    pub fn seed(&self) -> u64 {
        split_seed(
            self.run_seed,
            (self.pass * self.per_pass + self.index) as u64,
        )
    }
}

/// What one unit reports.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitOutput {
    /// Named scalar outputs in a fixed order. The digest and the
    /// determinism re-run hash these by name, so adding a field to a
    /// crate's report type changes nothing here.
    pub fields: Vec<(&'static str, f64)>,
    /// Why the unit's outputs failed their check, if they did.
    pub failure: Option<String>,
}

impl UnitOutput {
    /// The value of field `name` (0 when absent).
    pub fn field(&self, name: &str) -> f64 {
        self.fields
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// Sum of field `name` over `units`.
pub fn sum(units: &[UnitOutput], name: &str) -> f64 {
    units.iter().map(|u| u.field(name)).sum()
}

/// Mean of field `name` over `units` (0 for none).
pub fn mean(units: &[UnitOutput], name: &str) -> f64 {
    if units.is_empty() {
        0.0
    } else {
        sum(units, name) / units.len() as f64
    }
}

/// One benchmark workload.
pub trait Workload: Sync {
    /// What set-up builds and every unit reads.
    type Setup: Sync;

    /// Builds the set-up. Runs several times per run; each run starts
    /// with a cold compile cache.
    ///
    /// # Errors
    ///
    /// A message when the program cannot be set up at all.
    fn setup(&self, seed: u64, ctx: SpanCtx<'_>) -> Result<Self::Setup, String>;

    /// Units in one pass over the workload's grid. Units are indexed
    /// heaviest first, so that round-robin dealing balances the workers.
    fn units_per_pass(&self, setup: &Self::Setup) -> usize;

    /// True when units fan out over the worker pool; false when they
    /// run one after another (units that use the pool internally).
    fn parallel(&self) -> bool;

    /// Runs one unit and checks its outputs.
    fn run_unit(&self, setup: &Self::Setup, id: UnitId, ctx: SpanCtx<'_>) -> UnitOutput;

    /// Model outputs and work counts of the first pass, by metric name
    /// (see [`crate::DETERMINISTIC`]).
    fn summarize(&self, first_pass: &[UnitOutput]) -> Vec<(&'static str, f64)>;
}

/// How to run a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOptions {
    /// Input seed.
    pub seed: u64,
    /// Length of the measured phase; the pass in progress completes.
    pub seconds: f64,
    /// Record spans and report the per-layer metrics.
    pub trace: bool,
    /// One set-up and one pass at the workload's reduced scale.
    pub smoke: bool,
}

/// Everything one run measured.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Workload name.
    pub workload: &'static str,
    /// The options the run used.
    pub options: RunOptions,
    /// Worker threads units ran on.
    pub threads: usize,
    /// Set-up samples.
    pub setup_reps: usize,
    /// Completed passes.
    pub passes: usize,
    /// Units run, the determinism re-run included.
    pub attempted: u64,
    /// Units whose outputs failed a check.
    pub failed: u64,
    /// The failure messages, in order.
    pub failures: Vec<String>,
    /// FNV-1a digest of the first pass's named outputs.
    pub digest: u64,
    /// The reported metrics: `(name, unit, value)`, end-to-end ones
    /// without tracing, per-layer ones with it.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Host seconds as measured, before rescaling to the reference
    /// speed (empty with tracing).
    pub raw: Vec<(&'static str, f64)>,
    /// The first pass's deterministic outputs, by metric name.
    pub outputs: Vec<(&'static str, f64)>,
    /// Recorded spans (empty without tracing).
    pub spans: Vec<Span>,
}

impl RunReport {
    /// The summary object the run prints as its last line.
    pub fn summary(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                (
                    name.to_string(),
                    Value::Object(vec![
                        ("value".into(), Value::Number(*value)),
                        ("unit".into(), Value::String(unit.to_string())),
                    ]),
                )
            })
            .collect();
        Value::Object(vec![
            ("correct".into(), Value::Bool(self.failed == 0)),
            ("attempted".into(), Value::Number(self.attempted as f64)),
            ("failed".into(), Value::Number(self.failed as f64)),
            ("metrics".into(), Value::Object(metrics)),
        ])
    }

    /// The result file `bench-compare` reads: the summary plus the
    /// run's identity, digest and deterministic outputs.
    pub fn record(&self) -> Value {
        let Value::Object(mut members) = self.summary() else {
            unreachable!("the summary is an object")
        };
        members.splice(
            0..0,
            [
                (
                    "workload".to_string(),
                    Value::String(self.workload.to_string()),
                ),
                (
                    "seed".to_string(),
                    Value::String(self.options.seed.to_string()),
                ),
                ("trace".to_string(), Value::Bool(self.options.trace)),
                ("smoke".to_string(), Value::Bool(self.options.smoke)),
                ("seconds".to_string(), Value::Number(self.options.seconds)),
                ("threads".to_string(), Value::Number(self.threads as f64)),
                (
                    "setup_reps".to_string(),
                    Value::Number(self.setup_reps as f64),
                ),
                ("passes".to_string(), Value::Number(self.passes as f64)),
                (
                    "digest".to_string(),
                    Value::String(format!("{:016x}", self.digest)),
                ),
            ],
        );
        members.push((
            "raw".into(),
            Value::Object(
                self.raw
                    .iter()
                    .map(|(n, v)| (n.to_string(), Value::Number(*v)))
                    .collect(),
            ),
        ));
        members.push((
            "outputs".into(),
            Value::Object(
                self.outputs
                    .iter()
                    .map(|(n, v)| (n.to_string(), Value::Number(*v)))
                    .collect(),
            ),
        ));
        members.push((
            "failures".into(),
            Value::Array(
                self.failures
                    .iter()
                    .map(|f| Value::String(f.clone()))
                    .collect(),
            ),
        ));
        Value::Object(members)
    }
}

/// FNV-1a over `name=value;` of each unit's fields, prefixed by the
/// unit's position.
pub fn digest(units: &[UnitOutput]) -> u64 {
    let mut text = String::new();
    for (i, u) in units.iter().enumerate() {
        text.push_str(&format!("{i}:"));
        for (name, value) in &u.fields {
            text.push_str(&format!("{name}={value};"));
        }
    }
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Peak resident set size of this process, MiB (`VmHWM`).
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or lacks the field.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Runs `workload` under `options`.
///
/// # Errors
///
/// When set-up fails or peak memory cannot be read; output-check
/// failures are counted in the report instead.
pub fn run<W: Workload>(
    name: &'static str,
    workload: &W,
    options: &RunOptions,
) -> Result<RunReport, String> {
    let tracer = Tracer::new(options.trace);
    let root = tracer.root();

    // Set-up runs MIN_SETUP_REPS times before the first pass, each from
    // a cold compile cache. A cheap set-up is also sampled between
    // passes, so that its median rests on samples spread over the whole
    // run rather than on one moment of it. A sample is the mean time of
    // `reps` set-ups, each timed from a cold cache.
    let timed_setups = |reps: usize| -> Result<(W::Setup, f64), String> {
        let mut seconds = 0.0;
        let mut last = None;
        for _ in 0..reps {
            equinox_isa::cache::clear();
            let start = Instant::now();
            let setup = root.span("bench", "setup", |ctx| workload.setup(options.seed, ctx))?;
            seconds += start.elapsed().as_secs_f64();
            last = Some(setup);
        }
        let setup = last.ok_or("a set-up sample needs at least one set-up")?;
        Ok((setup, seconds / reps as f64))
    };
    let (setup, first_setup_s) = timed_setups(1)?;
    let mut setup_s = vec![first_setup_s];
    if !options.smoke {
        for _ in 1..MIN_SETUP_REPS {
            setup_s.push(timed_setups(1)?.1);
        }
    }
    let fastest = setup_s.iter().copied().fold(f64::INFINITY, f64::min);
    let setup_batch = if options.trace {
        1
    } else {
        (SETUP_SAMPLE.as_secs_f64() / fastest).ceil().max(1.0) as usize
    };
    let setups_between_passes = if options.smoke {
        0
    } else {
        ((SETUP_PER_PASS.as_secs_f64() / (fastest * setup_batch as f64)) as usize)
            .min(MAX_SETUPS_PER_PASS)
    };
    let per_pass = workload.units_per_pass(&setup);
    let threads = if workload.parallel() {
        equinox_par::thread_count()
    } else {
        1
    };

    let mut pass_s = Vec::new();
    let mut unit_s = Vec::new();
    let mut failures = Vec::new();
    let mut first_pass = Vec::new();
    // The speed probe runs before the first pass and after every pass,
    // on as many threads as the pool has. Traced runs report no host
    // times, so they skip it.
    let mut probe = (!options.trace).then(|| Probe::new(equinox_par::thread_count()));
    let measure_start_ns = tracer.now_ns();
    let start = Instant::now();
    if let Some(probe) = &mut probe {
        probe.gap();
    }
    for pass in 0.. {
        // Every pass compiles from a cold cache, like a fresh process.
        equinox_isa::cache::clear();
        let pass_start = Instant::now();
        // Units are listed heaviest first. Dealing them round-robin
        // gives every worker a heaviest-first share, so a pass ends on
        // light units and its wall clock does not hinge on a straggler.
        let dealt = (0..threads)
            .flat_map(|w| (w..per_pass).step_by(threads))
            .collect();
        let mut outputs = root.span("bench", "pass", |ctx| {
            equinox_par::parallel_map_with(threads, dealt, |index| {
                let id = UnitId {
                    run_seed: options.seed,
                    pass,
                    index,
                    per_pass,
                };
                let unit_start = Instant::now();
                let out = ctx.unit((pass * per_pass + index + 1) as u32, |ctx| {
                    workload.run_unit(&setup, id, ctx)
                });
                (index, out, unit_start.elapsed().as_secs_f64())
            })
        });
        outputs.sort_by_key(|(index, _, _)| *index);
        pass_s.push(pass_start.elapsed().as_secs_f64());
        for (index, out, seconds) in &outputs {
            unit_s.push(*seconds);
            if let Some(why) = &out.failure {
                failures.push(format!("pass {pass} unit {index}: {why}"));
            }
        }
        if pass == 0 {
            first_pass = outputs.into_iter().map(|(_, out, _)| out).collect();
        }
        if let Some(probe) = &mut probe {
            probe.gap();
        }
        if options.smoke || start.elapsed().as_secs_f64() >= options.seconds {
            break;
        }
        for _ in 0..setups_between_passes {
            setup_s.push(timed_setups(setup_batch)?.1);
        }
    }
    let measure_end_ns = tracer.now_ns();

    // Determinism: unit 0 once more, with every field identical.
    let id = UnitId {
        run_seed: options.seed,
        pass: 0,
        index: 0,
        per_pass,
    };
    let rerun_unit = (pass_s.len() * per_pass + 1) as u32;
    let again = root.unit(rerun_unit, |ctx| workload.run_unit(&setup, id, ctx));
    if let Some(why) = &again.failure {
        failures.push(format!("re-run of unit 0: {why}"));
    } else if again.fields != first_pass[0].fields {
        failures.push("re-run of unit 0 gave different outputs".to_string());
    }

    let outputs = workload.summarize(&first_pass);
    let mut raw = Vec::new();
    let metrics = match &probe {
        None => {
            let spans = tracer.spans();
            let window = (measure_start_ns, measure_end_ns);
            per_layer_metrics(&tracer, &spans, window, &unit_s, &pass_s, threads, &outputs)
        }
        Some(probe) => {
            // A pass costs the measured phase's pass time over its
            // passes, and a set-up the median sample; both are rescaled
            // by the run's median probe round, which saw the same
            // machine.
            let median = |xs: &[f64]| stats::median(xs).expect("at least one sample");
            let mean_pass = pass_s.iter().sum::<f64>() / pass_s.len() as f64;
            let probe_s = probe.seconds().expect("the probe ran before the first pass");
            raw = vec![
                ("setup_s", median(&setup_s)),
                ("pass_s", mean_pass),
                ("pass_p50_s", median(&pass_s)),
                ("probe_s", probe_s),
            ];
            let factor = NOMINAL_S / probe_s;
            let values = [
                factor * median(&setup_s),
                factor * mean_pass,
                peak_rss_mib()?,
            ];
            END_TO_END
                .iter()
                .zip(values)
                .map(|(&(name, unit), v)| (name, unit, v))
                .collect()
        }
    };
    Ok(RunReport {
        workload: name,
        options: *options,
        threads,
        setup_reps: setup_s.len(),
        passes: pass_s.len(),
        attempted: unit_s.len() as u64 + 1,
        failed: failures.len() as u64,
        failures,
        digest: digest(&first_pass),
        metrics,
        raw,
        outputs,
        spans: if options.trace {
            tracer.spans()
        } else {
            Vec::new()
        },
    })
}

/// Span names whose self time is reported as `<metric>` shares, beyond
/// the per-layer totals: `(metric, layer, span names)`.
const SPAN_SHARES: [(&str, &str, &[&str]); 13] = [
    ("check.install_frac", "check", &["analyze_installation"]),
    ("check.dataflow_frac", "check", &["dataflow"]),
    ("check.resources_frac", "check", &["resources"]),
    ("check.encoding_frac", "check", &["encoding"]),
    ("check.bounds_frac", "check", &["bounds"]),
    ("check.numerics_frac", "check", &["numerics"]),
    (
        "isa.lower_frac",
        "isa",
        &["compile_inference_cached", "lower_training_cached"],
    ),
    ("sim.loadgen_frac", "sim", &["scenario_arrivals"]),
    ("sim.run_frac", "sim", &["run_faulted"]),
    ("trainer.step_frac", "trainer", &["train_step"]),
    (
        "trainer.eval_frac",
        "trainer",
        &["validation_perplexity", "validation_error"],
    ),
    ("arith.gemm_frac", "arith", &["gemm"]),
    (
        "arith.quantize_frac",
        "arith",
        &["store_weights", "writeback"],
    ),
];

/// Work counters reported as rates, `<counter>_per_s`: the counter's
/// total over the summed duration of the spans that carry it.
const RATE_COUNTERS: [&str; 11] = [
    "isa.instr",
    "check.instr",
    "sim.device_cycles",
    "sim.requests",
    "fleet.device_cycles",
    "fleet.requests",
    "net.fabric_cycles",
    "net.link_bytes",
    "trainer.macs",
    "arith.macs",
    "core.fit_batches",
];

/// Layers whose share of self time is reported as `<layer>.self_frac`.
const LAYERS: [&str; 10] = [
    "bench", "model", "core", "isa", "check", "sim", "fleet", "net", "trainer", "arith",
];

fn per_layer_metrics(
    tracer: &Tracer,
    spans: &[Span],
    (lo, hi): (u64, u64),
    unit_s: &[f64],
    pass_s: &[f64],
    threads: usize,
    outputs: &[(&'static str, f64)],
) -> Vec<(&'static str, &'static str, f64)> {
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let own = self_seconds(spans);
    let total_self: f64 = own.values().sum();
    let share = |pick: &dyn Fn(&Span) -> bool| {
        spans
            .iter()
            .filter(|s| pick(s))
            .map(|s| own[&s.id])
            .sum::<f64>()
            / total_self
    };
    for layer in LAYERS {
        values.insert(format!("{layer}.self_frac"), share(&|s| s.layer == layer));
    }
    for (metric, layer, names) in SPAN_SHARES {
        values.insert(
            metric.to_string(),
            share(&|s| s.layer == layer && names.contains(&s.name)),
        );
    }

    let counters = tracer.counters();
    let seconds: BTreeMap<u32, f64> = spans.iter().map(|s| (s.id, s.seconds())).collect();
    for counter in RATE_COUNTERS {
        let carriers: BTreeSet<u32> = counters
            .iter()
            .filter(|c| c.1 == counter)
            .map(|c| c.0)
            .collect();
        let work: f64 = counters
            .iter()
            .filter(|c| c.1 == counter)
            .map(|c| c.2)
            .sum();
        let time: f64 = carriers
            .iter()
            .map(|id| seconds.get(id).copied().unwrap_or(0.0))
            .sum();
        values.insert(
            format!("{counter}_per_s"),
            if time > 0.0 { work / time } else { 0.0 },
        );
    }

    values.insert(
        "unit.p50_ms".into(),
        1e3 * stats::percentile(unit_s, 50.0).unwrap_or(0.0),
    );
    values.insert(
        "unit.p90_ms".into(),
        1e3 * stats::percentile(unit_s, 90.0).unwrap_or(0.0),
    );
    values.insert("bench.units".into(), unit_s.len() as f64);
    let busy: f64 = unit_s.iter().sum();
    let wall: f64 = pass_s.iter().sum();
    values.insert("par.busy_frac".into(), busy / (wall * threads as f64));

    // Coverage: the share of the measured phase during which some
    // thread was inside a timed call (not just a pass or unit frame).
    let mut timed: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| !(s.layer == "bench" && STRUCTURAL.contains(&s.name)))
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    values.insert(
        "trace.coverage_frac".into(),
        covered_ns(&mut timed, lo, hi) as f64 / (hi - lo) as f64,
    );
    values.insert(
        "trace.overhead_frac".into(),
        (spans.len() + counters.len()) as f64 * recording_cost_s()
            / ((hi - lo) as f64 * 1e-9 * threads as f64),
    );
    for (name, value) in outputs {
        values.insert(name.to_string(), *value);
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, unit, values.get(name).copied().unwrap_or(0.0)))
        .collect()
}

/// Seconds one span record costs, measured on a throwaway tracer: the
/// overhead tracing adds per recorded span or counter.
fn recording_cost_s() -> f64 {
    const N: u32 = 20_000;
    let throwaway = Tracer::new(true);
    let root = throwaway.root();
    let start = Instant::now();
    for _ in 0..N {
        root.span("bench", "calibrate", |ctx| ctx.count("calibrate", 1.0));
    }
    start.elapsed().as_secs_f64() / f64::from(2 * N)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(fields: Vec<(&'static str, f64)>) -> UnitOutput {
        UnitOutput {
            fields,
            failure: None,
        }
    }

    #[test]
    fn digest_depends_on_names_values_and_order() {
        let a = [unit(vec![("x", 1.0), ("y", 2.5)])];
        assert_eq!(digest(&a), digest(&a.clone()));
        assert_ne!(digest(&a), digest(&[unit(vec![("x", 1.0), ("y", 2.25)])]));
        assert_ne!(digest(&a), digest(&[unit(vec![("z", 1.0), ("y", 2.5)])]));
        assert_ne!(
            digest(&[unit(vec![("x", 1.0)]), unit(vec![])]),
            digest(&[unit(vec![]), unit(vec![("x", 1.0)])])
        );
    }

    #[test]
    fn unit_seeds_are_distinct_streams_of_the_run_seed() {
        let id = |pass, index| {
            UnitId {
                run_seed: 42,
                pass,
                index,
                per_pass: 12,
            }
            .seed()
        };
        assert_eq!(id(0, 0), split_seed(42, 0));
        assert_eq!(id(1, 2), split_seed(42, 14));
        assert_ne!(id(0, 1), id(1, 0));
    }

    #[test]
    fn field_helpers_sum_and_average() {
        let units = [unit(vec![("a", 1.0)]), unit(vec![("a", 3.0), ("b", 1.0)])];
        assert_eq!(sum(&units, "a"), 4.0);
        assert_eq!(mean(&units, "a"), 2.0);
        assert_eq!(mean(&units, "b"), 0.5);
        assert_eq!(mean(&[], "a"), 0.0);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib().expect("Linux exposes VmHWM") > 0.0);
    }

    /// Four units per pass; optionally one fails its check, and
    /// optionally outputs drift from call to call.
    struct Fake {
        calls: std::sync::atomic::AtomicU64,
        drifts: bool,
        failing: Option<usize>,
    }

    impl Fake {
        fn new(drifts: bool, failing: Option<usize>) -> Self {
            Fake {
                calls: 0.into(),
                drifts,
                failing,
            }
        }
    }

    impl Workload for Fake {
        type Setup = u64;

        fn setup(&self, seed: u64, ctx: SpanCtx<'_>) -> Result<u64, String> {
            Ok(ctx.span("model", "derive", |_| seed + 1))
        }

        fn units_per_pass(&self, _: &u64) -> usize {
            4
        }

        fn parallel(&self) -> bool {
            true
        }

        fn run_unit(&self, setup: &u64, id: UnitId, ctx: SpanCtx<'_>) -> UnitOutput {
            let call = self.calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            let value = ctx.span("sim", "run_faulted", |ctx| {
                ctx.count("sim.device_cycles", 1000.0);
                (id.seed() % 1000) as f64 + *setup as f64
            });
            let mut fields = vec![("value", value)];
            if self.drifts {
                fields.push(("call", call as f64));
            }
            let failure = (self.failing == Some(id.index)).then(|| "doctored".to_string());
            UnitOutput { fields, failure }
        }

        fn summarize(&self, first: &[UnitOutput]) -> Vec<(&'static str, f64)> {
            vec![("sim.requests", sum(first, "value"))]
        }
    }

    fn smoke(trace: bool) -> RunOptions {
        RunOptions {
            seed: 5,
            seconds: 1.0,
            trace,
            smoke: true,
        }
    }

    #[test]
    fn a_clean_run_reports_every_end_to_end_metric() {
        let a = run("fake", &Fake::new(false, None), &smoke(false)).unwrap();
        assert_eq!(
            (a.passes, a.attempted, a.failed),
            (1, 5, 0),
            "{:?}",
            a.failures
        );
        let names: Vec<_> = a.metrics.iter().map(|m| m.0).collect();
        assert_eq!(names, END_TO_END.map(|m| m.0));
        assert!(a.metrics.iter().all(|m| m.2 > 0.0), "{:?}", a.metrics);
        let b = run("fake", &Fake::new(false, None), &smoke(false)).unwrap();
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.outputs, b.outputs);
        let summary = crate::json::to_string(&a.summary()).unwrap();
        assert!(summary.starts_with("{\"correct\":true,\"attempted\":5,\"failed\":0,\"metrics\":{"));
    }

    #[test]
    fn failed_checks_and_nondeterminism_are_counted() {
        let failing = run("fake", &Fake::new(false, Some(2)), &smoke(false)).unwrap();
        assert_eq!(failing.failed, 1);
        assert!(failing.failures[0].contains("unit 2: doctored"));
        let drifting = run("fake", &Fake::new(true, None), &smoke(false)).unwrap();
        assert_eq!(drifting.failed, 1);
        assert!(drifting.failures[0].contains("different outputs"));
        assert!(!matches!(
            drifting.summary().get("correct"),
            Some(Value::Bool(true))
        ));
    }

    #[test]
    fn a_traced_run_reports_every_per_layer_metric() {
        let r = run("fake", &Fake::new(false, None), &smoke(true)).unwrap();
        let value = |name: &str| r.metrics.iter().find(|m| m.0 == name).expect(name).2;
        assert_eq!(r.metrics.len(), PER_LAYER.len());
        assert!(value("sim.device_cycles_per_s") > 0.0);
        assert!(value("sim.self_frac") > 0.0 && value("sim.self_frac") <= 1.0);
        assert_eq!(value("net.self_frac"), 0.0);
        assert_eq!(value("sim.requests"), r.outputs[0].1);
        assert_eq!(value("bench.units"), 4.0);
        for share in ["trace.coverage_frac", "par.busy_frac"] {
            assert!(
                (0.0..=1.0).contains(&value(share)),
                "{share} {}",
                value(share)
            );
        }
        // Set-up, one pass of four units, and the re-run are all spans.
        let units: BTreeSet<u32> = r.spans.iter().map(|s| s.unit).filter(|&u| u > 0).collect();
        assert_eq!(units.len(), 5);
        assert!(r.spans.iter().any(|s| s.layer == "model" && s.parent != 0));
    }
}
