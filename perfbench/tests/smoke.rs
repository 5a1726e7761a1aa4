//! The benchmark's own checks, on test-sized inputs.

use std::collections::BTreeMap;

use perfbench::report::{Kind, METRICS};
use perfbench::{run, Config, Workload};
use serde_json::Value;

fn tiny(workload: Workload, seed: u64, traced: bool) -> Config {
    Config {
        workload,
        seed,
        seconds: 0.0,
        traced,
        tiny: true,
    }
}

/// Runs one tiny run and parses its result line.
fn result(cfg: &Config) -> Value {
    let line = run(cfg).json();
    serde_json::from_str(&line)
        .unwrap_or_else(|e| panic!("result line is not JSON ({e:?}): {line}"))
}

fn metrics(v: &Value) -> BTreeMap<String, (f64, String)> {
    v.get("metrics")
        .and_then(Value::as_object)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .expect("numeric value");
            let unit = m
                .get("unit")
                .and_then(Value::as_str)
                .expect("unit")
                .to_owned();
            (name.clone(), (value, unit))
        })
        .collect()
}

/// `(name, unit)` of every metric the benchmark definition lists under
/// `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    doc.get(key)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn catalog_matches_the_benchmark_definition() {
    for (key, kind) in [
        ("end_to_end", Kind::EndToEnd),
        ("per_layer", Kind::PerLayer),
    ] {
        let catalog: Vec<(String, String)> = METRICS
            .iter()
            .filter(|&&(_, _, k)| k == kind)
            .map(|&(n, u, _)| (n.to_owned(), u.to_owned()))
            .collect();
        assert_eq!(declared(key), catalog, "{key}");
    }
}

#[test]
fn tiny_runs_report_every_metric_with_zero_failures() {
    for workload in Workload::ALL {
        for (traced, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let v = result(&tiny(workload, 1, traced));
            let name = workload.name();
            assert_eq!(
                v.get("correct").and_then(Value::as_bool),
                Some(true),
                "{name} trace={traced}: {v:?}"
            );
            assert_eq!(v.get("failed").and_then(Value::as_u64), Some(0), "{name}");
            assert!(
                v.get("attempted").and_then(Value::as_u64).unwrap_or(0) > 0,
                "{name}"
            );
            let got = metrics(&v);
            let want = declared(key);
            assert_eq!(
                got.len(),
                want.len(),
                "{name} trace={traced}: exactly the declared metrics"
            );
            for (metric, unit) in want {
                let (value, got_unit) = got
                    .get(&metric)
                    .unwrap_or_else(|| panic!("{name}: {metric} missing"));
                assert_eq!(got_unit, &unit, "{name}: {metric}");
                if !traced {
                    assert!(
                        *value > 0.0,
                        "{name}: end-to-end {metric} must never read 0"
                    );
                }
            }
        }
    }
}

#[test]
fn per_layer_counts_repeat_exactly_for_a_seed() {
    let counts = |v: &Value| -> BTreeMap<String, f64> {
        metrics(v)
            .into_iter()
            .filter(|(_, (_, unit))| unit == "count")
            .map(|(n, (x, _))| (n, x))
            .collect()
    };
    for workload in Workload::ALL {
        let a = counts(&result(&tiny(workload, 7, true)));
        let b = counts(&result(&tiny(workload, 7, true)));
        assert_eq!(a, b, "{}", workload.name());
        assert!(
            a.get("core.checks").copied().unwrap_or(0.0) > 0.0,
            "{}",
            workload.name()
        );
    }
}

#[test]
fn another_seed_runs_clean() {
    for workload in Workload::ALL {
        let v = result(&tiny(workload, 0x5eed_cafe, false));
        assert_eq!(
            v.get("failed").and_then(Value::as_u64),
            Some(0),
            "{}: {v:?}",
            workload.name()
        );
    }
}

#[test]
fn layers_do_the_work_their_workload_was_chosen_for() {
    let layer = |w, name: &str| metrics(&result(&tiny(w, 3, true)))[name].0;
    assert!(
        layer(Workload::AppWarm, "core.filter_runs") < layer(Workload::AppMiss, "core.filter_runs")
    );
    assert_eq!(layer(Workload::AppWarm, "core.denials"), 0.0);
    assert!(layer(Workload::AppMiss, "cuckoo.evictions") > 0.0);
    assert!(layer(Workload::FleetSteady, "core.batches") > 0.0);
    assert_eq!(layer(Workload::FleetSteady, "dracod.reloads_refused"), 0.0);
    let churn = metrics(&result(&tiny(Workload::FleetChurn, 3, true)));
    assert!(churn["dracod.reloads_permitted"].0 > 0.0);
    assert!(churn["dracod.reloads_refused"].0 > 0.0);
}
