//! End-to-end smoke tests of `repro throughput`.

use std::process::Command;

use draco_bench::throughput::ThroughputReport;

fn run_quick(out: &std::path::Path, extra: &[&str]) -> ThroughputReport {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["throughput", "--quick", "--json", "--out"])
        .arg(out)
        .args(extra)
        .output()
        .expect("repro runs");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    serde_json::from_str(&stdout).expect("stdout is a schema-valid report")
}

/// Every replay backend label, the batch backend included.
const BACKENDS: [&str; 5] = [
    "seccomp-interp",
    "seccomp-compiled",
    "draco-sw",
    "draco-dag",
    "draco-batch",
];

/// The value of a series the report must carry.
fn v(report: &ThroughputReport, name: &str) -> f64 {
    report
        .value(name)
        .unwrap_or_else(|| panic!("series `{name}` missing"))
}

#[test]
fn quick_run_emits_schema_valid_json() {
    let out = std::env::temp_dir().join("draco_throughput_smoke.json");
    let report = run_quick(&out, &["--shards", "2", "--seed", "11"]);

    assert_eq!(report.schema, draco_bench::throughput::SCHEMA);
    assert_eq!(report.shards, 2);
    assert_eq!(report.seed, 11);
    for label in BACKENDS {
        assert!(
            v(&report, &format!("{label}.single_checks_per_sec")) > 0.0,
            "{label}"
        );
        assert!(
            v(&report, &format!("{label}.multi_checks_per_sec")) > 0.0,
            "{label}"
        );
    }
    let hit_rate = v(&report, "draco-sw.cache_hit_rate");
    assert!(hit_rate > 0.5);
    assert_eq!(v(&report, "draco-dag.cache_hit_rate"), hit_rate);

    // The batch backend rode along with real numbers and the same hit
    // rate as the scalar draco-sw replay.
    assert!(v(&report, "draco-batch.batch") > 0.0);
    assert!(v(&report, "draco-batch.speedup_vs_scalar") > 0.0);
    assert!(v(&report, "draco-batch.batches") > 0.0);
    assert!(v(&report, "draco-batch.prefetch_issued") > 0.0);
    assert_eq!(v(&report, "draco-batch.cache_hit_rate"), hit_rate);

    // A deny-heavy stream with all three filter engines timed over it.
    assert!(v(&report, "dag.checks") > 0.0);
    assert!(v(&report, "dag.deny_rate") > 0.5, "stream built to miss");
    for name in [
        "dag.interp_checks_per_sec",
        "dag.compiled_checks_per_sec",
        "dag.dag_checks_per_sec",
        "dag.speedup_vs_interp",
        "dag.table_entries",
        "dag.closed_entries",
    ] {
        assert!(v(&report, name) > 0.0, "{name}");
    }

    // The file mirrors stdout and survives a serde round-trip.
    let on_disk = std::fs::read_to_string(&out).expect("report written");
    let parsed: ThroughputReport = serde_json::from_str(&on_disk).expect("file parses");
    assert_eq!(parsed, report);
    let reserialized = serde_json::to_string_pretty(&report).expect("serializes");
    let round: ThroughputReport = serde_json::from_str(&reserialized).expect("round-trips");
    assert_eq!(round, report);
    let _ = std::fs::remove_file(&out);
}

#[test]
fn same_seed_runs_have_identical_shard_counts() {
    let out_a = std::env::temp_dir().join("draco_throughput_det_a.json");
    let out_b = std::env::temp_dir().join("draco_throughput_det_b.json");
    let flags = ["--shards", "2", "--seed", "42"];
    let a = run_quick(&out_a, &flags);
    let b = run_quick(&out_b, &flags);

    // The registry's replay section sums every backend's per-shard
    // check and allow tallies.
    let replay = &a.metrics.replay;
    assert_eq!(replay.shards, 5 * 2, "five backends, two shards each");
    assert_eq!(replay.checks, 5 * 2 * 5_000);
    assert_eq!(a.metrics, b.metrics, "the merged registry is deterministic");
    for label in BACKENDS {
        let name = format!("{label}.cache_hit_rate");
        assert_eq!(v(&a, &name), v(&b, &name), "{name}");
    }
    for name in [
        "draco-batch.batches",
        "draco-batch.prefetch_issued",
        "draco-batch.miss_dedup_hits",
    ] {
        assert_eq!(
            v(&a, name),
            v(&b, name),
            "batch counters are deterministic: {name}"
        );
    }
    let _ = std::fs::remove_file(&out_a);
    let _ = std::fs::remove_file(&out_b);
}

#[test]
fn quick_run_writes_under_the_current_directory() {
    let dir = std::env::temp_dir().join(format!("draco_throughput_cwd_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["throughput", "--quick", "--shards", "2"])
        .current_dir(&dir)
        .output()
        .expect("repro runs");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let text = std::fs::read_to_string(dir.join("target/BENCH_throughput.quick.json"))
        .expect("the quick report lands under the current directory");
    let report: ThroughputReport = serde_json::from_str(&text).expect("report parses");
    assert!(v(&report, "draco-sw.single_checks_per_sec") > 0.0);
    assert!(
        !dir.join("BENCH_history.jsonl").exists(),
        "quick runs leave the history alone"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn warmup_at_least_ops_is_rejected() {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["throughput", "--ops", "100", "--warmup", "100"])
        .output()
        .expect("repro runs");
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("--warmup must be below --ops"));
}
