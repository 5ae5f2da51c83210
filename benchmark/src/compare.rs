//! Judging one set of runs against another (`bench-compare`).
//!
//! Runs pair up by (workload, seed, trace mode). For each metric the
//! verdict follows the rule the benchmark is held to: a change is
//! *better* only when it wins at least nine tenths of the pairs (ties
//! count for neither) and its median beats the base median by more
//! than the base's own quartile spread; it is *worse* when its median
//! is worse than the base's by more than the metric's bound. When the
//! base's spread (quartile distance over median) is wider than the
//! bound the metric is *unresolved*, not unchanged, unless every new
//! run beats every base run. Deterministic outputs must be identical
//! seed for seed.

use crate::json::{self, Value};
use crate::stats;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// One run's result file, as `bench` writes it.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Seed, as written.
    pub seed: String,
    /// Whether the run was traced (per-layer metrics) or not.
    pub trace: bool,
    /// Digest of the first pass's outputs.
    pub digest: String,
    /// Whether every output check passed.
    pub correct: bool,
    /// Reported metrics by name.
    pub metrics: BTreeMap<String, f64>,
    /// Deterministic first-pass outputs by name.
    pub outputs: BTreeMap<String, f64>,
}

impl Record {
    /// Reads a record from a parsed result file.
    ///
    /// # Errors
    ///
    /// When a required member is missing or has the wrong type.
    pub fn from_json(v: &Value) -> Result<Record, String> {
        let text = |k: &str| {
            v.get(k)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or(format!("missing '{k}'"))
        };
        let flag = |k: &str| match v.get(k) {
            Some(Value::Bool(b)) => Ok(*b),
            _ => Err(format!("missing '{k}'")),
        };
        let numbers = |k: &str, inner: Option<&str>| -> Result<BTreeMap<String, f64>, String> {
            let members = v
                .get(k)
                .and_then(Value::as_object)
                .ok_or(format!("missing '{k}'"))?;
            members
                .iter()
                .map(|(name, value)| {
                    let x = match inner {
                        Some(field) => value.get(field).and_then(Value::as_f64),
                        None => value.as_f64(),
                    };
                    x.map(|x| (name.clone(), x))
                        .ok_or(format!("'{k}.{name}' is not a number"))
                })
                .collect()
        };
        Ok(Record {
            workload: text("workload")?,
            seed: text("seed")?,
            trace: flag("trace")?,
            digest: text("digest")?,
            correct: flag("correct")?,
            metrics: numbers("metrics", Some("value"))?,
            outputs: numbers("outputs", None)?,
        })
    }
}

/// Reads every `result-*.json` in `dir`, skipping smoke-scale runs.
///
/// # Errors
///
/// When the directory or a file cannot be read or parsed.
pub fn load_dir(dir: &Path) -> Result<Vec<Record>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut records = Vec::new();
    let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !(name.starts_with("result-") && name.ends_with(".json")) {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let value = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if matches!(value.get("smoke"), Some(Value::Bool(true))) {
            continue;
        }
        records.push(Record::from_json(&value).map_err(|e| format!("{}: {e}", path.display()))?);
    }
    Ok(records)
}

/// A metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// True when lower values are better.
    pub lower_is_better: bool,
    /// Allowed worsening as a share of the base median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
    /// True for end-to-end metrics (reported by untraced runs).
    pub end_to_end: bool,
}

/// The metrics declared in a parsed `BENCHMARK.json`.
///
/// # Errors
///
/// When `end_to_end` or `per_layer` is missing or malformed.
pub fn metric_specs(benchmark: &Value) -> Result<Vec<MetricSpec>, String> {
    let mut specs = Vec::new();
    for (key, end_to_end) in [("end_to_end", true), ("per_layer", false)] {
        let list = benchmark
            .get(key)
            .and_then(Value::as_array)
            .ok_or(format!("missing '{key}'"))?;
        for m in list {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or(format!("'{key}' entry without a name"))?;
            let better = m
                .get("better")
                .and_then(Value::as_str)
                .ok_or(format!("{name}: no 'better'"))?;
            specs.push(MetricSpec {
                name: name.to_string(),
                lower_is_better: better == "lower",
                bound: m.get("bound").and_then(Value::as_f64),
                end_to_end,
            });
        }
    }
    Ok(specs)
}

/// The outcome for one (workload, metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A gain by the nine-in-ten rule.
    Better,
    /// Within the bound.
    Same,
    /// Worse by more than the bound.
    Worse,
    /// The base's own spread exceeds the bound.
    Unresolved,
    /// A deterministic output equal seed for seed.
    Identical,
    /// A deterministic output that changed.
    Differs,
}

impl Verdict {
    /// Lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Identical => "identical",
            Verdict::Differs => "DIFFERS",
        }
    }
}

/// Judges `new` against `base` for one metric. `pairs` holds the
/// `(base, new)` values of runs with the same seed; `bound` is `None`
/// for per-layer metrics, which are judged by the win rule alone.
pub fn verdict(
    base: &[f64],
    new: &[f64],
    pairs: &[(f64, f64)],
    lower_is_better: bool,
    bound: Option<f64>,
) -> Verdict {
    let (Some(med_b), Some(med_n), Some((q1, q3))) = (
        stats::median(base),
        stats::median(new),
        stats::quartiles(base),
    ) else {
        return Verdict::Unresolved;
    };
    let spread = q3 - q1;
    let gain = |b: f64, n: f64| if lower_is_better { b - n } else { n - b };
    let improvement = gain(med_b, med_n);
    let win_share = |won: &dyn Fn(f64, f64) -> bool| {
        if pairs.is_empty() {
            0.0
        } else {
            pairs.iter().filter(|(b, n)| won(*b, *n)).count() as f64 / pairs.len() as f64
        }
    };
    let clear_gain = win_share(&|b, n| gain(b, n) > 0.0) >= 0.9 && improvement > spread;
    let clear_loss = win_share(&|b, n| gain(b, n) < 0.0) >= 0.9 && -improvement > spread;
    let every_new_better = new.iter().all(|&n| base.iter().all(|&b| gain(b, n) > 0.0));
    let Some(bound) = bound else {
        return if clear_gain {
            Verdict::Better
        } else if clear_loss {
            Verdict::Worse
        } else {
            Verdict::Same
        };
    };
    let scale = med_b.abs().max(f64::MIN_POSITIVE);
    if spread / scale > bound {
        return if clear_gain || every_new_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if clear_gain {
        Verdict::Better
    } else if -improvement / scale > bound {
        Verdict::Worse
    } else {
        Verdict::Same
    }
}

/// One line of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Base median and quartiles.
    pub base: (f64, f64, f64),
    /// New median and quartiles.
    pub new: (f64, f64, f64),
    /// Pairs the new run won, and pairs compared.
    pub wins: (usize, usize),
    /// The verdict.
    pub verdict: Verdict,
}

/// The full comparison of two sets of records.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Comparison {
    /// One row per (workload, metric) present in both sets.
    pub rows: Vec<Row>,
    /// Human-readable findings: differing digests, failed runs.
    pub flags: Vec<String>,
}

impl Comparison {
    /// True when nothing got worse and no deterministic output moved.
    pub fn clean(&self) -> bool {
        self.flags.is_empty()
            && self
                .rows
                .iter()
                .all(|r| !matches!(r.verdict, Verdict::Worse | Verdict::Differs))
    }
}

fn select<'r>(set: &'r [Record], workload: &str, trace: bool) -> Vec<&'r Record> {
    set.iter()
        .filter(|r| r.workload == workload && r.trace == trace)
        .collect()
}

fn summary(xs: &[f64]) -> (f64, f64, f64) {
    let (q1, q3) = stats::quartiles(xs).unwrap_or((f64::NAN, f64::NAN));
    (stats::median(xs).unwrap_or(f64::NAN), q1, q3)
}

/// Compares `new` against `base` under `specs`.
pub fn compare(base: &[Record], new: &[Record], specs: &[MetricSpec]) -> Comparison {
    let mut out = Comparison::default();
    for (set, records) in [("base", base), ("new", new)] {
        for r in records.iter().filter(|r| !r.correct) {
            out.flags.push(format!(
                "{set}: {} seed {} failed its output checks",
                r.workload, r.seed
            ));
        }
    }
    let workloads: BTreeSet<&str> = base.iter().map(|r| r.workload.as_str()).collect();
    for workload in workloads {
        for spec in specs {
            let trace = !spec.end_to_end;
            let (b, n) = (select(base, workload, trace), select(new, workload, trace));
            let values = |rs: &[&Record]| -> Vec<f64> {
                rs.iter()
                    .filter_map(|r| r.metrics.get(&spec.name).copied())
                    .collect()
            };
            let (bv, nv) = (values(&b), values(&n));
            // Deterministic outputs get their own exact rows below, and
            // a layer the workload never touches reads 0 throughout.
            let absent = bv.iter().chain(&nv).all(|&x| x == 0.0);
            if bv.is_empty()
                || nv.is_empty()
                || absent
                || crate::DETERMINISTIC.contains(&spec.name.as_str())
            {
                continue;
            }
            let pairs: Vec<(f64, f64)> = b
                .iter()
                .filter_map(|rb| {
                    let rn = n.iter().find(|rn| rn.seed == rb.seed)?;
                    Some((*rb.metrics.get(&spec.name)?, *rn.metrics.get(&spec.name)?))
                })
                .collect();
            let gain = |(x, y): &(f64, f64)| if spec.lower_is_better { y < x } else { y > x };
            out.rows.push(Row {
                workload: workload.to_string(),
                metric: spec.name.clone(),
                base: summary(&bv),
                new: summary(&nv),
                wins: (pairs.iter().filter(|p| gain(p)).count(), pairs.len()),
                verdict: verdict(&bv, &nv, &pairs, spec.lower_is_better, spec.bound),
            });
        }
        // Deterministic outputs and digests, seed for seed.
        let mut seen: BTreeMap<String, bool> = BTreeMap::new();
        for rb in base.iter().filter(|r| r.workload == workload) {
            for rn in new
                .iter()
                .filter(|r| r.workload == workload && r.seed == rb.seed)
            {
                if rb.digest != rn.digest {
                    out.flags.push(format!(
                        "{workload} seed {}: digest {} -> {}",
                        rb.seed, rb.digest, rn.digest
                    ));
                }
                for (name, x) in &rb.outputs {
                    let same = rn.outputs.get(name) == Some(x);
                    *seen.entry(name.clone()).or_insert(true) &= same;
                }
            }
        }
        for (name, same) in seen {
            let (bv, nv): (Vec<f64>, Vec<f64>) = (
                base.iter()
                    .filter(|r| r.workload == workload)
                    .filter_map(|r| r.outputs.get(&name).copied())
                    .collect(),
                new.iter()
                    .filter(|r| r.workload == workload)
                    .filter_map(|r| r.outputs.get(&name).copied())
                    .collect(),
            );
            out.rows.push(Row {
                workload: workload.to_string(),
                metric: name,
                base: summary(&bv),
                new: summary(&nv),
                wins: (0, 0),
                verdict: if same {
                    Verdict::Identical
                } else {
                    Verdict::Differs
                },
            });
        }
    }
    out.flags.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gains_need_nine_in_ten_wins_and_a_gap_beyond_the_spread() {
        let base = [10.0, 10.1, 9.9, 10.05, 9.95];
        let faster = [9.0, 9.1, 8.9, 9.05, 8.95];
        let pairs: Vec<_> = base.iter().copied().zip(faster).collect();
        assert_eq!(
            verdict(&base, &faster, &pairs, true, Some(0.05)),
            Verdict::Better
        );
        // The same numbers are a loss when higher is better.
        assert_eq!(
            verdict(&base, &faster, &pairs, false, Some(0.05)),
            Verdict::Worse
        );
        // Within the bound and no clear win: unchanged.
        let close = [10.02, 10.0, 9.97, 10.06, 9.96];
        let pairs: Vec<_> = base.iter().copied().zip(close).collect();
        assert_eq!(
            verdict(&base, &close, &pairs, true, Some(0.05)),
            Verdict::Same
        );
        // 3 wins of 5 is not a gain even with a lower median.
        let mixed = [9.0, 9.1, 10.5, 10.6, 8.95];
        let pairs: Vec<_> = base.iter().copied().zip(mixed).collect();
        assert_eq!(
            verdict(&base, &mixed, &pairs, true, Some(0.2)),
            Verdict::Same
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_new_run_is_better() {
        let base = [8.0, 12.0, 10.0, 9.0, 11.0];
        let slower = [12.0, 9.0, 11.5, 12.5, 10.5];
        let pairs: Vec<_> = base.iter().copied().zip(slower).collect();
        assert_eq!(
            verdict(&base, &slower, &pairs, true, Some(0.05)),
            Verdict::Unresolved
        );
        let much_faster = [5.0, 5.5, 6.0, 5.2, 5.1];
        assert_eq!(
            verdict(&base, &much_faster, &[], true, Some(0.05)),
            Verdict::Better
        );
    }

    #[test]
    fn per_layer_metrics_use_the_win_rule_alone() {
        let base = [1.0, 1.0, 1.0];
        let up = [2.0, 2.0, 2.0];
        let pairs: Vec<_> = base.iter().copied().zip(up).collect();
        assert_eq!(verdict(&base, &up, &pairs, false, None), Verdict::Better);
        assert_eq!(verdict(&base, &up, &pairs, true, None), Verdict::Worse);
        assert_eq!(verdict(&base, &base, &pairs, true, None), Verdict::Same);
    }

    fn record(seed: &str, pass_s: f64, digest: &str, p99: f64) -> Record {
        Record {
            workload: "cohost".into(),
            seed: seed.into(),
            trace: false,
            digest: digest.into(),
            correct: true,
            metrics: [("pass_s".to_string(), pass_s)].into(),
            outputs: [("sim_p99_ms".to_string(), p99)].into(),
        }
    }

    #[test]
    fn compare_pairs_by_seed_and_flags_moved_outputs() {
        let spec = MetricSpec {
            name: "pass_s".into(),
            lower_is_better: true,
            bound: Some(0.1),
            end_to_end: true,
        };
        let base: Vec<_> = (1..=5)
            .map(|s| record(&s.to_string(), 1.0 + s as f64 * 0.001, "aa", 2.0))
            .collect();
        let same = compare(&base, &base, std::slice::from_ref(&spec));
        assert!(same.clean(), "{same:?}");
        assert_eq!(same.rows.len(), 2);
        assert_eq!(same.rows[0].verdict, Verdict::Same);
        assert_eq!(same.rows[1].verdict, Verdict::Identical);

        let mut moved = base.clone();
        moved[2].digest = "bb".into();
        moved[2].outputs.insert("sim_p99_ms".into(), 2.5);
        let c = compare(&base, &moved, &[spec]);
        assert!(!c.clean());
        assert!(
            c.flags
                .iter()
                .any(|f| f.contains("seed 3: digest aa -> bb")),
            "{:?}",
            c.flags
        );
        assert_eq!(c.rows[1].verdict, Verdict::Differs);
    }

    #[test]
    fn reads_specs_and_records_from_json() {
        let benchmark = json::parse(
            r#"{"end_to_end":[{"name":"pass_s","unit":"s","better":"lower","bound":0.1}],
                "per_layer":[{"name":"arith.macs_per_s","unit":"1/s","better":"higher"}]}"#,
        )
        .unwrap();
        let specs = metric_specs(&benchmark).unwrap();
        assert_eq!(
            specs[0],
            MetricSpec {
                name: "pass_s".into(),
                lower_is_better: true,
                bound: Some(0.1),
                end_to_end: true
            }
        );
        assert_eq!(specs[1].bound, None);
        assert!(!specs[1].lower_is_better && !specs[1].end_to_end);
        let record = json::parse(
            r#"{"workload":"cohost","seed":"42","trace":false,"digest":"00ff","correct":true,
                "metrics":{"pass_s":{"value":1.5,"unit":"s"}},"outputs":{"sim_p99_ms":2.0}}"#,
        )
        .unwrap();
        let r = Record::from_json(&record).unwrap();
        assert_eq!(r.metrics["pass_s"], 1.5);
        assert_eq!(r.outputs["sim_p99_ms"], 2.0);
        assert!(Record::from_json(&json::parse("{}").unwrap()).is_err());
    }
}
