//! `BENCHMARK.json` at the repository root declares what the benchmark
//! reports: the same workloads, metric names, units and run length as
//! the code.

use equinox_benchmark::json::{self, Value};
use equinox_benchmark::workloads::NAMES;
use equinox_benchmark::{DEFAULT_SECONDS, END_TO_END, PER_LAYER};

fn benchmark() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names_and_units(list: &Value) -> Vec<(String, String)> {
    list.as_array()
        .expect("a list")
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

#[test]
fn declarations_match_the_code() {
    let b = benchmark();
    let workloads: Vec<&str> = b
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, NAMES);
    assert_eq!(
        b.get("run_seconds").and_then(Value::as_f64),
        Some(DEFAULT_SECONDS)
    );
    let pairs = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(
        names_and_units(b.get("end_to_end").expect("end_to_end")),
        pairs(&END_TO_END)
    );
    assert_eq!(
        names_and_units(b.get("per_layer").expect("per_layer")),
        pairs(&PER_LAYER)
    );
}

#[test]
fn bounds_are_within_the_limits_and_setup_has_the_largest() {
    let b = benchmark();
    let bounds: Vec<(String, f64)> = b
        .get("end_to_end")
        .and_then(Value::as_array)
        .expect("end_to_end")
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string();
            (name, m.get("bound").and_then(Value::as_f64).expect("bound"))
        })
        .collect();
    assert!(
        bounds.iter().all(|(_, x)| *x > 0.0 && *x <= 0.25),
        "{bounds:?}"
    );
    let setup = bounds
        .iter()
        .find(|(n, _)| n == "setup_s")
        .expect("setup_s")
        .1;
    assert!(bounds.iter().all(|(_, x)| *x <= setup));
}
