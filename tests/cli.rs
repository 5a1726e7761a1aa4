//! End-to-end tests of the `dracoctl` binary.

use std::process::{Command, Stdio};

fn dracoctl(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dracoctl"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("dracoctl runs");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn no_args_prints_usage_and_fails() {
    let (code, _, err) = dracoctl(&[]);
    assert_eq!(code, 2);
    assert!(err.contains("usage:"));
}

#[test]
fn profile_stats_for_builtins() {
    for (name, syscalls) in [("docker", "358"), ("gvisor", "74"), ("firecracker", "37")] {
        let (code, out, _) = dracoctl(&["profile", "stats", name]);
        assert_eq!(code, 0, "{name}");
        assert!(out.contains(syscalls), "{name}: {out}");
        assert!(out.contains("surface by subsystem"));
        assert!(out.contains("cBPF instructions"));
    }
}

#[test]
fn profile_json_roundtrips_through_a_file() {
    let (code, json, _) = dracoctl(&["profile", "json", "firecracker"]);
    assert_eq!(code, 0);
    let path = std::env::temp_dir().join("dracoctl-cli-test.json");
    std::fs::write(&path, &json).expect("write temp profile");
    let (code, out, _) = dracoctl(&["profile", "stats", path.to_str().unwrap()]);
    assert_eq!(code, 0);
    assert!(out.contains("37 syscalls"));
}

#[test]
fn profile_disasm_emits_listing() {
    let (code, out, _) = dracoctl(&["profile", "disasm", "firecracker"]);
    assert_eq!(code, 0);
    assert!(out.contains("; filter 1 of 1"));
    assert!(out.contains("ld  [4]"), "arch load first");
    assert!(out.contains("ret"));
    // Tree layout also works.
    let (code, tree, _) = dracoctl(&["profile", "disasm", "firecracker", "--tree"]);
    assert_eq!(code, 0);
    assert!(tree.contains("jgt"), "binary search pivots present");
}

#[test]
fn check_exit_code_reflects_verdict() {
    let (code, out, _) = dracoctl(&["check", "docker", "personality", "0xffffffff"]);
    assert_eq!(code, 0);
    assert!(out.contains("allow"));
    assert!(out.contains("VatHit"), "second check hits the cache: {out}");
    let (code, out, _) = dracoctl(&["check", "docker", "ptrace"]);
    assert_eq!(code, 1, "denied verdicts exit nonzero");
    assert!(out.contains("errno"));
}

#[test]
fn check_unknown_syscall_errors() {
    let (code, _, err) = dracoctl(&["check", "docker", "frobnicate"]);
    assert_eq!(code, 1);
    assert!(err.contains("unknown syscall"));
}

#[test]
fn trace_gen_and_analyze_pipeline() {
    let (code, json, _) = dracoctl(&["trace", "gen", "pipe", "--ops", "200", "--seed", "9"]);
    assert_eq!(code, 0);
    let path = std::env::temp_dir().join("dracoctl-cli-trace.json");
    std::fs::write(&path, &json).expect("write temp trace");
    let (code, out, _) = dracoctl(&["trace", "analyze", path.to_str().unwrap()]);
    assert_eq!(code, 0);
    assert!(out.contains("pipe: 200 calls"));
    assert!(out.contains("read"));
}

#[test]
fn stats_json_round_trips_through_the_registry_schema() {
    let (code, out, _) = dracoctl(&["stats", "pipe", "--ops", "500", "--json"]);
    assert_eq!(code, 0);
    // The emitted JSON is a complete, parseable MetricsRegistry.
    let registry: draco::obs::MetricsRegistry =
        serde_json::from_str(&out).expect("stats --json is a MetricsRegistry");
    assert_eq!(registry.checker.total(), 500);
    assert!(registry.checker.vat_hits > 0);
    assert!(registry.cuckoo.probe_length.count() > 0);
    // And it survives a second round trip bit-identically.
    let again = serde_json::to_string(&registry).expect("serializes");
    let back: draco::obs::MetricsRegistry = serde_json::from_str(&again).expect("parses");
    assert_eq!(back, registry);
}

#[test]
fn flag_without_a_value_is_a_usage_error() {
    let (code, out, err) = dracoctl(&["stats", "pipe", "--ops"]);
    assert_eq!(code, 2);
    assert!(err.contains("--ops needs a numeric value"), "{err}");
    assert!(out.is_empty(), "nothing ran: {out}");
}

#[test]
fn unparsable_flag_value_is_a_usage_error() {
    let (code, out, err) = dracoctl(&["stats", "pipe", "--ops", "abc"]);
    assert_eq!(code, 2);
    assert!(err.contains("--ops needs a numeric value"), "{err}");
    assert!(out.is_empty(), "nothing ran with a default: {out}");
    let (code, _, err) = dracoctl(&["bench-service", "--quick", "--seed", "-1"]);
    assert_eq!(code, 2, "a negative seed does not parse as u64");
    assert!(err.contains("--seed needs a numeric value"), "{err}");
}

#[test]
fn stats_prints_quantile_upper_bounds() {
    let (code, out, _) = dracoctl(&["stats", "pipe", "--ops", "500"]);
    assert_eq!(code, 0);
    assert!(out.contains("quantile upper bounds"), "{out}");
    assert!(out.contains("probe-length     : p50<="), "{out}");
    assert!(out.contains("insns/filter-run : p50<="), "{out}");
}

#[test]
fn trace_span_chrome_format_is_valid_and_staged() {
    let (code, out, _) = dracoctl(&[
        "trace", "pipe", "--ops", "500", "--sample", "1", "--format", "chrome",
    ]);
    assert_eq!(code, 0);
    let doc: serde_json::Value = serde_json::from_str(&out).expect("chrome trace is JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let mut stages = std::collections::BTreeSet::new();
    for ev in events {
        assert_eq!(ev.get("ph").and_then(|v| v.as_str()), Some("X"));
        assert!(ev.get("dur").and_then(serde_json::Value::as_f64).is_some());
        stages.insert(ev.get("name").and_then(|v| v.as_str()).expect("name").to_owned());
    }
    assert!(stages.len() >= 4, "distinct stages: {stages:?}");
    assert!(stages.contains("spt-lookup"), "{stages:?}");
    assert!(stages.contains("filter-exec"), "{stages:?}");
}

#[test]
fn trace_span_folded_format_collapses_stacks() {
    let (code, out, _) = dracoctl(&[
        "trace", "pipe", "--ops", "500", "--sample", "1", "--format", "folded",
    ]);
    assert_eq!(code, 0);
    assert!(!out.is_empty());
    for line in out.lines() {
        let (stack, count) = line.rsplit_once(' ').expect("`stack count` shape");
        assert!(stack.contains(';'), "class;stage frames: {line}");
        count.parse::<u64>().expect("numeric count");
    }
    assert!(out.contains("vat-hit;"), "{out}");
    // Hardware spans surface the sim-only stages.
    let (code, hw, _) = dracoctl(&[
        "trace", "pipe", "--ops", "500", "--sample", "1", "--format", "folded", "--hw",
    ]);
    assert_eq!(code, 0);
    assert!(hw.contains("stb-predict"), "{hw}");
    assert!(hw.contains("slb-access"), "{hw}");
}

#[test]
fn trace_span_rejects_bad_format() {
    let (code, _, err) = dracoctl(&["trace", "pipe", "--format", "xml"]);
    assert_eq!(code, 2);
    assert!(err.contains("chrome"), "{err}");
}

#[test]
fn workloads_lists_the_catalog() {
    let (code, out, _) = dracoctl(&["workloads"]);
    assert_eq!(code, 0);
    for name in ["httpd", "elasticsearch", "mq", "hpcc"] {
        assert!(out.contains(name), "{name} missing");
    }
    assert_eq!(out.lines().count(), 15);
}
