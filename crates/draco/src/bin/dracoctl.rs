//! `dracoctl` — inspect profiles, filters, traces, and checks from the
//! command line.
//!
//! ```text
//! dracoctl profile stats <docker|gvisor|firecracker|PATH.json>
//! dracoctl profile json  <docker|gvisor|firecracker>
//! dracoctl profile disasm <docker|gvisor|firecracker|PATH.json> [--tree]
//! dracoctl analyze <docker|gvisor|firecracker|PATH.json> [--format human|json] [--strict]
//! dracoctl diff <old> <new> [--format human|json] [--witnesses N] [--strict]
//! dracoctl compile <docker|gvisor|firecracker|PATH.json> [--selfcheck]
//! dracoctl check <docker|gvisor|firecracker|PATH.json> <syscall> [arg0 arg1 ...]
//! dracoctl trace gen <workload> [--ops N] [--seed N]        # JSON to stdout
//! dracoctl trace analyze <PATH.json|->                      # Fig. 3-style report
//! dracoctl trace <workload> [--format chrome|folded] [--hw] # stage spans
//! dracoctl stats <workload> [--ops N] [--seed N] [--trace N] [--batch N]
//!                [--json] [--prom]
//! dracoctl stats --quick [PATH]          # summarize the untracked quick bench
//! dracoctl top <workload> [--shards N] [--ops N] [--rounds N] [--deny-every N]
//! dracoctl audit <workload> [--follow] [--format jsonl|human] [--deny-every N]
//! dracoctl prom-lint <PATH|->            # Prometheus text-format checker
//! dracoctl shared-replay <workload> [--threads N] [--ops N] [--warmup N]
//!                        [--seed N] [--mix skewed|uniform] [--batch N] [--json]
//! dracoctl serve [--policy permissive|require-refinement] [--batch N] [--analyzed]
//!                                                           # line protocol on stdin
//! dracoctl bench-service [--tenants N] [--rounds N] [--ops N] [--seed N]
//!                        [--batch N] [--quick] [--json]      # churn scenario
//! dracoctl workloads                                        # list the catalog
//! ```

use std::io::Read as _;

use draco::bpf::{disasm, Verdict};
use draco::core::DracoChecker;
use draco::profiles::{
    analyze_profile, compile_dag, compile_dag_checked, compile_stacked, diff_profiles_with,
    docker_default, firecracker, gvisor_default, profile_from_json, profile_to_json,
    FilterLayout, MaskAgreement, ProfileAnalysis, ProfileDiff, ProfileKind, ProfileSpec,
    ProfileStats, SelfCheckError,
};
use draco::syscalls::{ArgSet, SyscallId, SyscallRequest, SyscallTable};
use draco::workloads::timing::profile_for_trace;
use draco::workloads::{catalog, LocalityReport, SyscallTrace, TraceGenerator};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = run(&args);
    std::process::exit(code);
}

fn run(args: &[String]) -> i32 {
    match args.first().map(String::as_str) {
        Some("profile") => profile_cmd(&args[1..]),
        Some("analyze") => analyze_cmd(&args[1..]),
        Some("diff") => diff_cmd(&args[1..]),
        Some("compile") => compile_cmd(&args[1..]),
        Some("check") => check_cmd(&args[1..]),
        Some("trace") => trace_cmd(&args[1..]),
        Some("stats") => stats_cmd(&args[1..]),
        Some("top") => top_cmd(&args[1..]),
        Some("audit") => audit_cmd(&args[1..]),
        Some("prom-lint") => prom_lint_cmd(&args[1..]),
        Some("shared-replay") => shared_replay_cmd(&args[1..]),
        Some("serve") => serve_cmd(&args[1..]),
        Some("bench-service") => bench_service_cmd(&args[1..]),
        Some("workloads") => {
            for spec in catalog::all() {
                println!(
                    "{:<20} {:<6} {:>2} syscalls in mix, ~{} ns/op",
                    spec.name,
                    spec.class.to_string(),
                    spec.mix.len(),
                    spec.compute_ns_per_op
                );
            }
            0
        }
        _ => {
            eprintln!(
                "usage: dracoctl <profile|analyze|diff|compile|check|trace|stats|top|audit|prom-lint|workloads> ...\n\
                 \x20 profile stats|json|disasm <docker|gvisor|firecracker|PATH.json>\n\
                 \x20 analyze <profile> [--format human|json] [--strict]\n\
                 \x20 diff <old> <new> [--format human|json] [--witnesses N] [--strict]\n\
                 \x20 compile <profile> [--selfcheck]\n\
                 \x20 check <profile> <syscall> [args...]\n\
                 \x20 trace gen <workload> [--ops N] [--seed N]\n\
                 \x20 trace analyze <PATH.json|->\n\
                 \x20 trace <workload> [--format chrome|folded] [--ops N] [--seed N]\n\
                 \x20       [--sample N] [--hw] [--out PATH]\n\
                 \x20 stats <workload> [--ops N] [--seed N] [--trace N] [--batch N]\n\
                 \x20       [--json] [--prom]\n\
                 \x20 stats --quick [PATH]   (summarize ./target/BENCH_throughput.quick.json)\n\
                 \x20 top <workload> [--shards N] [--ops N] [--warmup N] [--seed N]\n\
                 \x20     [--rounds N] [--window N] [--deny-every N] [--batch N] [--dag]\n\
                 \x20 audit <workload> [--follow] [--format jsonl|human] [--shards N]\n\
                 \x20       [--ops N] [--warmup N] [--seed N] [--rounds N] [--deny-every N]\n\
                 \x20       [--capacity N] [--burst N] [--refill N]\n\
                 \x20 prom-lint <PATH|->\n\
                 \x20 shared-replay <workload> [--threads N] [--ops N] [--warmup N]\n\
                 \x20               [--seed N] [--mix skewed|uniform] [--batch N] [--json]\n\
                 \x20 serve [--policy permissive|require-refinement] [--batch N] [--analyzed]\n\
                 \x20 bench-service [--tenants N] [--rounds N] [--ops N] [--seed N]\n\
                 \x20               [--batch N] [--quick] [--json]\n\
                 \x20 workloads"
            );
            2
        }
    }
}

fn load_profile(name: &str) -> Result<ProfileSpec, String> {
    load_profile_import(name).map(|(profile, _)| profile)
}

/// Like [`load_profile`], but also returns the syscall names a Docker
/// import skipped (unknown on this architecture); empty for catalog and
/// native-schema profiles.
fn load_profile_import(name: &str) -> Result<(ProfileSpec, Vec<String>), String> {
    match name {
        "docker" | "docker-default" => Ok((docker_default(), Vec::new())),
        "gvisor" | "gvisor-default" => Ok((gvisor_default(), Vec::new())),
        "firecracker" => Ok((firecracker(), Vec::new())),
        path => {
            let json = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read `{path}`: {e}"))?;
            // Native schema first, then the Docker/OCI seccomp.json format.
            match profile_from_json(&json) {
                Ok(profile) => Ok((profile, Vec::new())),
                Err(native_err) => {
                    let stem = std::path::Path::new(path)
                        .file_stem()
                        .and_then(|s| s.to_str())
                        .unwrap_or("imported");
                    draco::profiles::import_docker_json(&json, stem)
                        .map(|import| (import.profile, import.skipped))
                        .map_err(|docker_err| {
                            format!(
                                "cannot parse `{path}`: not the native schema                          ({native_err}) nor Docker seccomp.json ({docker_err})"
                            )
                        })
                }
            }
        }
    }
}

fn profile_cmd(args: &[String]) -> i32 {
    let (Some(verb), Some(which)) = (args.first(), args.get(1)) else {
        eprintln!("usage: dracoctl profile <stats|json|disasm> <profile>");
        return 2;
    };
    let profile = match load_profile(which) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };
    match verb.as_str() {
        "stats" => {
            let stats = ProfileStats::for_profile(&profile);
            println!("{}: {}", profile.name(), stats);
            println!(
                "default action: {}; repeat: {}x",
                profile.default_action(),
                profile.repeat()
            );
            print!("surface by subsystem:");
            for cat in draco::syscalls::Category::ALL {
                let n = stats.category_count(cat);
                if n > 0 {
                    print!(" {cat}={n}");
                }
            }
            println!();
            let stack = compile_stacked(&profile, FilterLayout::Linear).expect("compiles");
            println!(
                "compiles to {} filter(s), {} cBPF instructions",
                stack.len(),
                stack.total_insns()
            );
            0
        }
        "json" => {
            println!("{}", profile_to_json(&profile));
            0
        }
        "disasm" => {
            let layout = if args.iter().any(|a| a == "--tree") {
                FilterLayout::BinaryTree
            } else {
                FilterLayout::Linear
            };
            let stack = compile_stacked(&profile, layout).expect("compiles");
            for (i, program) in stack.programs().iter().enumerate() {
                println!("; filter {} of {} ({} insns)", i + 1, stack.len(), program.len());
                print!("{}", disasm(program));
            }
            0
        }
        other => {
            eprintln!("unknown profile verb `{other}`");
            2
        }
    }
}

/// `dracoctl analyze <profile> [--format human|json] [--strict]` — runs
/// the abstract-interpretation filter analyzer over the profile's
/// compiled stack: per-syscall verdicts, derived SPT argument masks
/// (cross-checked against the authored ones), and the filter lint pass.
///
/// Exit code 0 means the analysis is clean; 1 means it found problems
/// (error lints, derived/authored mask disagreements, verdict classes
/// contradicting the rule shape — or, under `--strict`, any lint at
/// all); 2 is a usage error.
fn analyze_cmd(args: &[String]) -> i32 {
    let Some(which) = args.first() else {
        eprintln!("usage: dracoctl analyze <profile> [--format human|json] [--strict]");
        return 2;
    };
    let mut format = "human".to_owned();
    let mut strict = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--format" => {
                i += 1;
                format = args.get(i).cloned().unwrap_or(format);
            }
            "--strict" => strict = true,
            other => {
                eprintln!("unknown flag `{other}`");
                return 2;
            }
        }
        i += 1;
    }
    if format != "human" && format != "json" {
        eprintln!("--format must be `human` or `json`, got `{format}`");
        return 2;
    }
    let (profile, skipped) = match load_profile_import(which) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };
    let analysis = match analyze_profile(&profile) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cannot compile `{}`: {e}", profile.name());
            return 1;
        }
    };
    let mut problems = analysis_problems(&analysis, strict);
    if strict {
        // Skipped imports are names the profile *meant* to govern but the
        // importer could not map — unenforced policy, an error in strict
        // mode.
        for name in &skipped {
            problems.push(format!("import skipped unknown syscall `{name}`"));
        }
    }
    if format == "json" {
        println!("{}", analysis_json(&analysis, &problems, &skipped));
    } else {
        print_analysis_human(&analysis, &problems, &skipped);
    }
    i32::from(!problems.is_empty())
}

/// Findings that make an analysis non-clean, as printable strings.
fn analysis_problems(analysis: &ProfileAnalysis, strict: bool) -> Vec<String> {
    let mut problems = Vec::new();
    for fl in analysis.lints() {
        let is_error = fl.lint.kind.severity() == draco::bpf::Severity::Error;
        if is_error || strict {
            problems.push(format!("filter {}: {}", fl.filter, fl.lint));
        }
    }
    for report in analysis.syscalls() {
        let name = syscall_name(report.sid);
        if report.agreement == MaskAgreement::Disagreement {
            problems.push(format!(
                "{name}: derived mask {:#x} reads bytes outside the authored mask {:#x}",
                report.derived_mask.raw(),
                report.authored_mask.map_or(0, |m| m.raw())
            ));
        }
        if !report.matches_spec {
            problems.push(format!(
                "{name}: verdict {} contradicts the rule's shape",
                verdict_label(report.verdict)
            ));
        }
    }
    problems
}

fn syscall_name(sid: draco::syscalls::SyscallId) -> String {
    SyscallTable::shared()
        .get(sid)
        .map_or_else(|| sid.to_string(), |d| d.name().to_owned())
}

fn verdict_label(verdict: Verdict) -> String {
    match verdict {
        Verdict::AlwaysAllow => "always-allow".to_owned(),
        Verdict::AlwaysDeny(action) => format!("always-deny({action})"),
        Verdict::ArgDependent => "arg-dependent".to_owned(),
    }
}

fn print_analysis_human(analysis: &ProfileAnalysis, problems: &[String], skipped: &[String]) {
    let reports = analysis.syscalls();
    let deny = reports
        .iter()
        .filter(|r| matches!(r.verdict, Verdict::AlwaysDeny(_)))
        .count();
    let arg_dep = reports
        .iter()
        .filter(|r| r.verdict == Verdict::ArgDependent)
        .count();
    println!(
        "{}: {} filter(s), {} cBPF instructions, {} syscalls analyzed",
        analysis.name(),
        analysis.filters(),
        analysis.instructions(),
        reports.len()
    );
    println!(
        "verdicts: {} always-allow (no-VAT fast path), {} arg-dependent, {} always-deny",
        analysis.always_allow_count(),
        arg_dep,
        deny
    );
    let (mut matched, mut narrower, mut overridden) = (0usize, 0usize, 0usize);
    for r in reports.iter().filter(|r| r.authored_mask.is_some()) {
        match r.agreement {
            MaskAgreement::Match => matched += 1,
            MaskAgreement::DerivedNarrower => narrower += 1,
            MaskAgreement::Disagreement => overridden += 1,
        }
    }
    println!(
        "derived masks: {matched} exact, {narrower} narrower than authored, {overridden} overridden by authored"
    );
    let interesting: Vec<_> = reports
        .iter()
        .filter(|r| {
            r.verdict != Verdict::AlwaysAllow
                || r.agreement != MaskAgreement::Match
                || !r.matches_spec
                || r.ip_dependent
                || r.may_fault
        })
        .collect();
    if !interesting.is_empty() {
        println!("argument-dependent and flagged syscalls:");
        for r in interesting {
            let mut notes = Vec::new();
            if r.agreement == MaskAgreement::DerivedNarrower {
                notes.push("narrower".to_owned());
            }
            if r.agreement == MaskAgreement::Disagreement {
                notes.push("OVERRIDDEN".to_owned());
            }
            if r.ip_dependent {
                notes.push("ip-dependent".to_owned());
            }
            if r.may_fault {
                notes.push("may-fault".to_owned());
            }
            if !r.matches_spec {
                notes.push("SPEC-MISMATCH".to_owned());
            }
            println!(
                "  {:<18} {:<22} mask {:#014x} ({} bytes){}{}",
                syscall_name(r.sid),
                verdict_label(r.verdict),
                r.derived_mask.raw(),
                r.derived_mask.selected_bytes(),
                if notes.is_empty() { "" } else { "  " },
                notes.join(", ")
            );
        }
    }
    if analysis.lints().is_empty() {
        println!("lints: none");
    } else {
        println!("lints:");
        for fl in analysis.lints() {
            println!("  filter {}: {}", fl.filter, fl.lint);
        }
    }
    for name in skipped {
        println!("warning: import skipped unknown syscall `{name}` (not enforced)");
    }
    if problems.is_empty() {
        println!("clean: yes");
    } else {
        println!("clean: NO ({} problem(s))", problems.len());
        for p in problems {
            println!("  problem: {p}");
        }
    }
}

fn analysis_json(analysis: &ProfileAnalysis, problems: &[String], skipped: &[String]) -> String {
    use serde_json::Value;
    let syscalls: Vec<Value> = analysis
        .syscalls()
        .iter()
        .map(|r| {
            serde_json::json!({
                "syscall": syscall_name(r.sid),
                "nr": u64::from(r.sid.as_u16()),
                "verdict": verdict_label(r.verdict),
                "derived_mask": r.derived_mask.raw(),
                "authored_mask": r.authored_mask.map(|m| m.raw()),
                "agreement": format!("{:?}", r.agreement),
                "matches_spec": r.matches_spec,
                "ip_dependent": r.ip_dependent,
                "may_fault": r.may_fault,
            })
        })
        .collect();
    let lints: Vec<Value> = analysis
        .lints()
        .iter()
        .map(|fl| {
            serde_json::json!({
                "filter": fl.filter as u64,
                "insn": fl.lint.at as u64,
                "message": fl.lint.to_string(),
            })
        })
        .collect();
    let doc = serde_json::json!({
        "schema": "draco-analysis/v1",
        "profile": analysis.name(),
        "filters": analysis.filters() as u64,
        "instructions": analysis.instructions() as u64,
        "always_allow": analysis.always_allow_count() as u64,
        "syscalls": Value::Array(syscalls),
        "lints": Value::Array(lints),
        "skipped_imports": skipped.to_vec(),
        "problems": problems.to_vec(),
        "clean": problems.is_empty(),
    });
    serde_json::to_string_pretty(&doc).expect("analysis serializes")
}

/// `dracoctl diff <old> <new>` — semantically compares two profiles as
/// their installed filter stacks (see `docs/policy-diff.md`): per
/// syscall, `equivalent` / `refines` (the new profile denies a superset
/// — a safe tightening) / `relaxes` / `incomparable`, with divergence
/// witnesses that were re-executed in the concrete VM before being
/// reported. Exit status encodes the overall relation: 0 equivalent,
/// 1 refines, 2 relaxes or incomparable. `--strict` additionally exits
/// 2 when any syscall's relation rests on a truncated (non-proven)
/// search or either profile carries dead whitelist rules.
fn diff_cmd(args: &[String]) -> i32 {
    let (Some(old_name), Some(new_name)) = (args.first(), args.get(1)) else {
        eprintln!(
            "usage: dracoctl diff <old> <new> [--format human|json] [--witnesses N] [--strict]"
        );
        return 2;
    };
    let mut format = "human".to_owned();
    let mut max_witnesses = 5usize;
    let mut strict = false;
    let mut i = 2;
    while i < args.len() {
        match args[i].as_str() {
            "--format" if i + 1 < args.len() => {
                format = args[i + 1].clone();
                i += 1;
            }
            "--witnesses" if i + 1 < args.len() => {
                max_witnesses = match args[i + 1].parse() {
                    Ok(n) => n,
                    Err(_) => {
                        eprintln!("--witnesses wants a number, got `{}`", args[i + 1]);
                        return 2;
                    }
                };
                i += 1;
            }
            "--strict" => strict = true,
            other => {
                eprintln!("unknown flag `{other}`");
                return 2;
            }
        }
        i += 1;
    }
    if format != "human" && format != "json" {
        eprintln!("--format must be `human` or `json`, got `{format}`");
        return 2;
    }
    let (old, new) = match (load_profile(old_name), load_profile(new_name)) {
        (Ok(old), Ok(new)) => (old, new),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return 1;
        }
    };
    // Operator-facing diffs want proofs, not budget-truncated guesses:
    // afford the same concrete budget as the compile-time selfcheck.
    let cfg = draco::bpf::semdiff::DiffConfig {
        max_inputs_per_nr: 1 << 18,
        ..draco::bpf::semdiff::DiffConfig::default()
    };
    let diff = match diff_profiles_with(&old, &new, &cfg) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("cannot compile the profiles: {e}");
            return 1;
        }
    };
    let mut code = match diff.report.relation {
        draco::bpf::semdiff::Relation::Equivalent => 0,
        draco::bpf::semdiff::Relation::Refines => 1,
        draco::bpf::semdiff::Relation::Relaxes
        | draco::bpf::semdiff::Relation::Incomparable => 2,
    };
    let strict_problems = if strict {
        let mut problems = Vec::new();
        if !diff.report.fully_proven() {
            problems.push("some relations rest on a truncated concrete search".to_owned());
        }
        for (side, dead) in [("old", &diff.dead_old), ("new", &diff.dead_new)] {
            for sid in dead {
                problems.push(format!("{side} profile has a dead whitelist rule for {}", syscall_name(*sid)));
            }
        }
        problems
    } else {
        Vec::new()
    };
    if !strict_problems.is_empty() {
        code = 2;
    }
    if format == "json" {
        println!("{}", diff_json(&diff, &strict_problems, max_witnesses, code));
    } else {
        print_diff_human(&diff, &strict_problems, max_witnesses);
    }
    code
}

/// One semdiff proof as a JSON value.
fn proof_json(proof: draco::bpf::semdiff::Proof) -> serde_json::Value {
    use draco::bpf::semdiff::Proof;
    match proof {
        Proof::Abstract => serde_json::json!({"kind": "abstract"}),
        Proof::Exhaustive { inputs } => {
            serde_json::json!({"kind": "exhaustive", "inputs": inputs})
        }
        Proof::Bounded { inputs } => serde_json::json!({"kind": "bounded", "inputs": inputs}),
    }
}

fn diff_json(
    diff: &ProfileDiff,
    strict_problems: &[String],
    max_witnesses: usize,
    exit: i32,
) -> String {
    use draco::bpf::semdiff::Relation;
    let mut witnesses_left = max_witnesses;
    let divergent: Vec<serde_json::Value> = diff
        .report
        .divergent()
        .map(|s| {
            let witness = s.witness.filter(|_| witnesses_left > 0).map(|w| {
                witnesses_left -= 1;
                serde_json::json!({
                    "nr": w.data.nr,
                    "args": w.data.args.to_vec(),
                    "old": w.old.to_string(),
                    "new": w.new.to_string(),
                })
            });
            serde_json::json!({
                "syscall": syscall_name(SyscallId::new(s.nr as u16)),
                "nr": s.nr,
                "relation": s.relation.as_str(),
                "proof": proof_json(s.proof),
                "witness": witness,
            })
        })
        .collect();
    let counts = |rel: Relation| {
        diff.report
            .syscalls
            .iter()
            .filter(|s| s.relation == rel)
            .count() as u64
    };
    let dead = |rules: &[SyscallId]| -> Vec<String> {
        rules.iter().map(|sid| syscall_name(*sid)).collect()
    };
    let doc = serde_json::json!({
        "schema": "draco-semdiff/v1",
        "old": diff.old_name,
        "new": diff.new_name,
        "relation": diff.report.relation.as_str(),
        "safe_swap": diff.is_safe_swap(),
        "fully_proven": diff.report.fully_proven(),
        "inputs_executed": diff.report.inputs_executed,
        "counts": serde_json::json!({
            "equivalent": counts(Relation::Equivalent),
            "refines": counts(Relation::Refines),
            "relaxes": counts(Relation::Relaxes),
            "incomparable": counts(Relation::Incomparable),
        }),
        "divergent": divergent,
        "dead_rules": serde_json::json!({
            "old": dead(&diff.dead_old),
            "new": dead(&diff.dead_new),
        }),
        "strict_problems": strict_problems.to_vec(),
        "exit": exit,
    });
    serde_json::to_string_pretty(&doc).expect("diff serializes")
}

fn print_diff_human(diff: &ProfileDiff, strict_problems: &[String], max_witnesses: usize) {
    use draco::bpf::semdiff::Relation;
    println!(
        "{} → {}: {} ({} concrete inputs executed{})",
        diff.old_name,
        diff.new_name,
        diff.report.relation,
        diff.report.inputs_executed,
        if diff.report.fully_proven() {
            ", all relations proven"
        } else {
            ", some searches truncated"
        }
    );
    let count = |rel: Relation| {
        diff.report
            .syscalls
            .iter()
            .filter(|s| s.relation == rel)
            .count()
    };
    println!(
        "per-syscall: {} equivalent, {} refines, {} relaxes, {} incomparable",
        count(Relation::Equivalent),
        count(Relation::Refines),
        count(Relation::Relaxes),
        count(Relation::Incomparable)
    );
    let mut witnesses_left = max_witnesses;
    for s in diff.report.divergent() {
        let name = syscall_name(SyscallId::new(s.nr as u16));
        print!("  {name} (nr {}): {}", s.nr, s.relation);
        match s.proof {
            draco::bpf::semdiff::Proof::Abstract => print!(" [abstract]"),
            draco::bpf::semdiff::Proof::Exhaustive { inputs } => {
                print!(" [exhaustive over {inputs} inputs]");
            }
            draco::bpf::semdiff::Proof::Bounded { inputs } => {
                print!(" [bounded search, {inputs} inputs]");
            }
        }
        println!();
        if witnesses_left > 0 {
            if let Some(w) = &s.witness {
                witnesses_left -= 1;
                println!(
                    "    witness: args {:?} → old {}, new {}",
                    w.data.args, w.old, w.new
                );
            }
        }
    }
    for (side, dead) in [("old", &diff.dead_old), ("new", &diff.dead_new)] {
        if !dead.is_empty() {
            println!(
                "dead whitelist rules ({side}): {}",
                dead.iter()
                    .map(|sid| syscall_name(*sid))
                    .collect::<Vec<_>>()
                    .join(", ")
            );
        }
    }
    for p in strict_problems {
        println!("strict problem: {p}");
    }
}

/// `dracoctl compile <profile>` — lowers the profile through the
/// specializing filter compiler and dumps the resulting decision DAG:
/// summary statistics (node/table counts, how many table entries closed
/// to a verdict without a cBPF fallback) followed by the per-node
/// listing with provenance — which filter instruction range each node
/// was specialized from.
fn compile_cmd(args: &[String]) -> i32 {
    let Some(which) = args.first() else {
        eprintln!("usage: dracoctl compile <profile> [--selfcheck]");
        return 2;
    };
    let mut selfcheck = false;
    for arg in &args[1..] {
        if arg == "--selfcheck" {
            selfcheck = true;
        } else {
            eprintln!("unknown flag `{arg}`");
            return 2;
        }
    }
    let (profile, skipped) = match load_profile_import(which) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };
    let stack = if selfcheck {
        match compile_dag_checked(&profile) {
            Ok(s) => {
                println!(
                    "selfcheck: {} DAG(s) proven equivalent to their source filters",
                    s.len()
                );
                s
            }
            Err(e @ SelfCheckError::NotEquivalent { .. }) => {
                eprintln!("selfcheck FAILED: {e}");
                return 2;
            }
            Err(SelfCheckError::Compile(e)) => {
                eprintln!("cannot compile `{}`: {e}", profile.name());
                return 1;
            }
        }
    } else {
        match compile_dag(&profile) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot compile `{}`: {e}", profile.name());
                return 1;
            }
        }
    };
    let stats = stack.stats();
    println!(
        "{}: {} decision DAG(s), {} nodes ({} cmp, {} ret, {} cBPF fallback)",
        profile.name(),
        stack.len(),
        stats.nodes,
        stats.cmp,
        stats.ret,
        stats.fallback
    );
    println!(
        "dispatch: {} table entries, {} closed (verdict without touching cBPF)",
        stats.table_entries, stats.closed_entries
    );
    for name in &skipped {
        println!("warning: import skipped unknown syscall `{name}` (not enforced)");
    }
    print!("{}", stack.dump());
    0
}

fn check_cmd(args: &[String]) -> i32 {
    let (Some(which), Some(syscall)) = (args.first(), args.get(1)) else {
        eprintln!("usage: dracoctl check <profile> <syscall> [args...]");
        return 2;
    };
    let profile = match load_profile(which) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };
    let table = SyscallTable::shared();
    let desc = match table.by_name(syscall) {
        Some(d) => d,
        None => match syscall.parse::<u16>() {
            Ok(nr) if table.get(draco::syscalls::SyscallId::new(nr)).is_some() => {
                table.get(draco::syscalls::SyscallId::new(nr)).expect("checked")
            }
            _ => {
                eprintln!("unknown syscall `{syscall}`");
                return 1;
            }
        },
    };
    let values: Vec<u64> = args[2..]
        .iter()
        .map(|a| parse_u64(a))
        .collect::<Result<_, _>>()
        .unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        });
    if values.len() > 6 {
        eprintln!("at most 6 arguments");
        return 2;
    }
    let req = SyscallRequest::new(0, desc.id(), ArgSet::from_slice(&values));
    let mut checker = DracoChecker::from_profile(&profile).expect("checker builds");
    let first = checker.check(&req);
    let second = checker.check(&req);
    println!(
        "{}({}) under {}: {}",
        desc.name(),
        values
            .iter()
            .map(|v| format!("{v:#x}"))
            .collect::<Vec<_>>()
            .join(", "),
        profile.name(),
        first.action
    );
    println!("  first check : {:?}", first.path);
    println!("  second check: {:?}", second.path);
    i32::from(!first.action.permits())
}

fn parse_u64(s: &str) -> Result<u64, String> {
    let parsed = if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        s.parse()
    };
    parsed.map_err(|_| format!("bad numeric argument `{s}`"))
}

/// The numeric value after the flag at `args[*i]`: advances `*i` onto
/// it, or prints `<flag> needs a numeric value` and exits 2 when the
/// value is missing or does not parse.
fn flag_value<T: std::str::FromStr>(args: &[String], i: &mut usize) -> T {
    let flag = &args[*i];
    *i += 1;
    args.get(*i)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| {
            eprintln!("{flag} needs a numeric value");
            std::process::exit(2);
        })
}

/// Replays a generated workload trace through the software checker and
/// prints the merged observability snapshot — the CLI face of the
/// `draco-obs` registry. `--trace N` keeps the last `N` flow
/// classifications in a ring and prints them; `--batch N` drives the
/// replay through the staged [`DracoChecker::check_batch`] path in
/// groups of `N` (decisions are identical to the scalar loop — the
/// batch counters in the snapshot show the staging at work); `--json`
/// emits the raw [`draco::obs::MetricsRegistry`] instead of the human
/// snapshot; `--prom` renders the registry in the Prometheus text
/// format (pipe through `dracoctl prom-lint -` to check it).
///
/// `dracoctl stats --quick [PATH]` takes no workload: it summarizes an
/// untracked quick bench report (`repro throughput --quick`), default
/// path `target/BENCH_throughput.quick.json` under the current
/// directory.
fn stats_cmd(args: &[String]) -> i32 {
    let Some(name) = args.first() else {
        eprintln!(
            "usage: dracoctl stats <workload> [--ops N] [--seed N] [--trace N] [--batch N] [--json] [--prom]\n\
             \x20      dracoctl stats --quick [PATH]"
        );
        return 2;
    };
    if name == "--quick" {
        let path = args
            .get(1)
            .map_or("target/BENCH_throughput.quick.json", String::as_str);
        if args.len() > 2 {
            eprintln!("unknown flag `{}`", args[2]);
            return 2;
        }
        return quick_bench_summary(path);
    }
    let Some(spec) = catalog::by_name(name) else {
        eprintln!("unknown workload `{name}` (try `dracoctl workloads`)");
        return 1;
    };
    let mut ops = spec.default_ops;
    let mut seed = 0u64;
    let mut ring_cap = 0usize;
    let mut batch = 0usize;
    let mut json = false;
    let mut prom = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--ops" => ops = flag_value(args, &mut i),
            "--seed" => seed = flag_value(args, &mut i),
            "--trace" => ring_cap = flag_value(args, &mut i),
            "--batch" => batch = flag_value(args, &mut i),
            "--json" => json = true,
            "--prom" => prom = true,
            other => {
                eprintln!("unknown flag `{other}`");
                return 2;
            }
        }
        i += 1;
    }
    let trace = TraceGenerator::new(&spec, seed).generate(ops);
    let profile = profile_for_trace(&trace, ProfileKind::SyscallComplete);
    let mut checker = DracoChecker::from_profile(&profile).expect("checker builds");
    if ring_cap > 0 {
        checker.enable_flow_trace(ring_cap);
    }
    if batch > 0 {
        let requests: Vec<SyscallRequest> = trace.requests().collect();
        let mut out = vec![draco::core::Decision::KILLED; batch];
        for chunk in requests.chunks(batch) {
            checker.check_batch(chunk, &mut out[..chunk.len()]);
        }
    } else {
        for req in trace.requests() {
            checker.check(&req);
        }
    }
    let metrics = checker.metrics();
    if prom {
        print!("{}", draco::obs::render_prometheus(&metrics));
        return 0;
    }
    if json {
        println!("{}", serde_json::to_string_pretty(&metrics).expect("registry serializes"));
        return 0;
    }
    if batch > 0 {
        println!(
            "{name}: {ops} checks replayed in batches of {batch} (seed {seed}, syscall-complete profile)"
        );
    } else {
        println!("{name}: {ops} checks replayed (seed {seed}, syscall-complete profile)");
    }
    println!("{metrics}");
    println!("quantile upper bounds:");
    println!(
        "  probe-length     : {}",
        metrics.cuckoo.probe_length.quantile_summary()
    );
    println!(
        "  reuse-distance   : {}",
        metrics.cuckoo.reuse_distance.quantile_summary()
    );
    println!(
        "  insns/filter-run : {}",
        metrics.checker.insns_per_filter_run.quantile_summary()
    );
    if let Some(ring) = checker.flow_trace() {
        let table = SyscallTable::shared();
        println!(
            "recent flows ({} kept of {} recorded, {} overwritten):",
            ring.len(),
            ring.total_recorded(),
            ring.events_dropped()
        );
        for ev in ring.iter_recent() {
            let name = table
                .get(SyscallId::new(ev.syscall))
                .map_or("?", |d| d.name());
            println!("  #{:<10} {:<18} {}", ev.seq, name, ev.class);
        }
    }
    0
}

/// Summarizes an untracked quick throughput report: one line per named
/// series (the CLI has no `draco-bench` dependency, so the JSON is read
/// through `serde_json::Value`).
fn quick_bench_summary(path: &str) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read `{path}`: {e} (run `repro throughput --quick` first)");
            return 1;
        }
    };
    let doc: serde_json::Value = match serde_json::from_str(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("`{path}` is not JSON: {e}");
            return 1;
        }
    };
    let schema = doc.get("schema").and_then(|v| v.as_str()).unwrap_or("");
    if !schema.starts_with("draco-throughput/") {
        eprintln!("`{path}` is not a throughput report (schema `{schema}`)");
        return 1;
    }
    let Some(series) = doc.get("series").and_then(|v| v.as_array()) else {
        eprintln!("`{path}` holds no series (re-run `repro throughput --quick`)");
        return 1;
    };
    println!(
        "{path}: {schema} — workload {}, {} ops/shard x {} shards (seed {})",
        doc.get("workload").and_then(|v| v.as_str()).unwrap_or("?"),
        doc.get("ops_per_shard").and_then(|v| v.as_u64()).unwrap_or(0),
        doc.get("shards").and_then(|v| v.as_u64()).unwrap_or(0),
        doc.get("seed").and_then(|v| v.as_u64()).unwrap_or(0),
    );
    for s in series {
        println!(
            "  {:<40} {:>20.3} {}",
            s.get("name").and_then(|v| v.as_str()).unwrap_or("?"),
            s.get("value").and_then(serde_json::Value::as_f64).unwrap_or(0.0),
            s.get("unit").and_then(|v| v.as_str()).unwrap_or(""),
        );
    }
    0
}

/// `dracoctl top <workload> [--shards N] [--ops N] [--warmup N]
/// [--seed N] [--rounds N] [--window N] [--deny-every N] [--batch N]
/// [--dag]` — live per-shard table over a rounds-sliced replay. Each
/// round merges the shard registries, seals one window interval, and
/// redraws: sliding-window rates (checks/sec, cache-hit, deny) from the
/// newest intervals, windowed latency quantiles, per-shard progress,
/// and the audit ring's accounting. On a terminal the table refreshes
/// in place; piped output prints one summary line per round.
fn top_cmd(args: &[String]) -> i32 {
    use std::io::IsTerminal as _;

    use draco::workloads::live::{replay_live, LiveConfig, LiveTick};
    use draco::workloads::replay::ReplayBackend;

    let Some(name) = args.first() else {
        eprintln!(
            "usage: dracoctl top <workload> [--shards N] [--ops N] [--warmup N] [--seed N] [--rounds N] [--window N] [--deny-every N] [--batch N] [--dag]"
        );
        return 2;
    };
    let Some(spec) = catalog::by_name(name) else {
        eprintln!("unknown workload `{name}` (try `dracoctl workloads`)");
        return 1;
    };
    let mut cfg = LiveConfig::default();
    let mut batch = 0usize;
    let mut dag = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--shards" => cfg.replay.shards = flag_value(args, &mut i),
            "--ops" => cfg.replay.ops_per_shard = flag_value(args, &mut i),
            "--warmup" => cfg.replay.warmup_ops = flag_value(args, &mut i),
            "--seed" => cfg.replay.base_seed = flag_value(args, &mut i),
            "--rounds" => cfg.rounds = flag_value(args, &mut i),
            "--window" => cfg.window_capacity = flag_value(args, &mut i),
            "--deny-every" => cfg.deny_every = flag_value(args, &mut i),
            "--batch" => batch = flag_value(args, &mut i),
            "--dag" => dag = true,
            other => {
                eprintln!("unknown flag `{other}`");
                return 2;
            }
        }
        i += 1;
    }
    if cfg.replay.shards == 0 || cfg.rounds == 0 || cfg.window_capacity == 0 {
        eprintln!("--shards, --rounds, and --window must be nonzero");
        return 2;
    }
    let backend = if batch > 0 {
        ReplayBackend::DracoBatch { batch }
    } else if dag {
        ReplayBackend::DracoDag
    } else {
        ReplayBackend::DracoSw
    };

    let interactive = std::io::stdout().is_terminal();
    let render = |tick: &LiveTick<'_>| {
        if interactive {
            // Clear and home; redraw the whole table each round.
            print!("\x1b[2J\x1b[H");
        }
        if let Some(r) = tick.window.rates_over_last(5) {
            println!(
                "{name} [{}] round {}/{} — window[{}]: {:.0} checks/s, {:.1}% cache-hit, {:.2}% deny",
                backend.label(),
                tick.round + 1,
                tick.rounds,
                r.intervals,
                r.checks_per_sec,
                r.cache_hit_rate * 100.0,
                r.deny_rate * 100.0,
            );
            if interactive {
                println!("window latency (ns): {}", r.latency_ns.quantile_summary());
            }
        }
        if interactive {
            println!(
                "{:<6} {:>10} {:>10} {:>10} {:>10}",
                "shard", "checks", "allowed", "denials", "cache-hit"
            );
            for s in tick.shards {
                println!(
                    "{:<6} {:>10} {:>10} {:>10} {:>9.1}%",
                    s.shard,
                    s.checks,
                    s.allowed,
                    s.denials,
                    if s.checks > 0 {
                        s.cache_hits as f64 * 100.0 / s.checks as f64
                    } else {
                        0.0
                    }
                );
            }
            println!(
                "audit: {} published, {} dropped ({} ring-full, {} throttled), {} queued",
                tick.audit.events_published(),
                tick.audit.events_dropped(),
                tick.audit.dropped_ring_full(),
                tick.audit.dropped_rate_limited(),
                tick.audit.len()
            );
        }
    };
    let report = replay_live(&spec, ProfileKind::SyscallComplete, backend, &cfg, render);

    println!(
        "{}: {} checks in {} rounds, {} denials ({} audited, {} dropped), {:.0} checks/s overall",
        report.workload,
        report.total_checks(),
        report.rounds,
        report.total_denials(),
        report.audit_published,
        report.audit_dropped,
        if report.wall_ns > 0 {
            report.total_checks() as f64 * 1e9 / report.wall_ns as f64
        } else {
            0.0
        }
    );
    0
}

/// `dracoctl audit <workload> [--follow] [--format jsonl|human]
/// [--shards N] [--ops N] [--warmup N] [--seed N] [--rounds N]
/// [--deny-every N] [--capacity N] [--burst N] [--refill N]` — runs a
/// live replay and prints its denial-audit stream. By default every 8th
/// measured request is perturbed into a guaranteed denial
/// (`--deny-every 0` replays the trace untouched); `--follow` streams
/// events as each round drains the ring instead of printing them at the
/// end. `jsonl` emits one JSON object per event; `human` a table with
/// resolved syscall names. The accounting summary goes to stderr so
/// JSONL output stays machine-readable; exits 1 if published + dropped
/// does not equal the registry's denial counter.
fn audit_cmd(args: &[String]) -> i32 {
    use draco::obs::AuditEvent;
    use draco::workloads::live::{replay_live, LiveConfig};
    use draco::workloads::replay::ReplayBackend;

    let Some(name) = args.first() else {
        eprintln!(
            "usage: dracoctl audit <workload> [--follow] [--format jsonl|human] [--shards N] [--ops N] [--warmup N] [--seed N] [--rounds N] [--deny-every N] [--capacity N] [--burst N] [--refill N]"
        );
        return 2;
    };
    let Some(spec) = catalog::by_name(name) else {
        eprintln!("unknown workload `{name}` (try `dracoctl workloads`)");
        return 1;
    };
    let mut cfg = LiveConfig {
        deny_every: 8,
        ..LiveConfig::default()
    };
    let mut follow = false;
    let mut format = "human".to_owned();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--shards" => cfg.replay.shards = flag_value(args, &mut i),
            "--ops" => cfg.replay.ops_per_shard = flag_value(args, &mut i),
            "--warmup" => cfg.replay.warmup_ops = flag_value(args, &mut i),
            "--seed" => cfg.replay.base_seed = flag_value(args, &mut i),
            "--rounds" => cfg.rounds = flag_value(args, &mut i),
            "--deny-every" => cfg.deny_every = flag_value(args, &mut i),
            "--capacity" => cfg.audit_capacity = flag_value(args, &mut i),
            "--burst" => cfg.audit_burst = flag_value(args, &mut i),
            "--refill" => cfg.audit_refill_per_round = flag_value(args, &mut i),
            "--format" => {
                i += 1;
                format = args.get(i).cloned().unwrap_or(format);
            }
            "--follow" => follow = true,
            other => {
                eprintln!("unknown flag `{other}`");
                return 2;
            }
        }
        i += 1;
    }
    if format != "jsonl" && format != "human" {
        eprintln!("--format must be `jsonl` or `human`, got `{format}`");
        return 2;
    }
    if cfg.replay.shards == 0 || cfg.rounds == 0 {
        eprintln!("--shards and --rounds must be nonzero");
        return 2;
    }

    let table = SyscallTable::shared();
    let print_event = |ev: &AuditEvent| {
        if format == "jsonl" {
            println!("{}", ev.to_json_line());
        } else {
            let syscall = table
                .get(SyscallId::new(ev.syscall))
                .map_or_else(|| ev.syscall.to_string(), |d| d.name().to_owned());
            println!(
                "{:<6} {:<18} {:<10} {:<10} {}",
                ev.source,
                syscall,
                ev.decision.label(),
                ev.engine.label(),
                ev.provenance.label()
            );
        }
    };
    if format == "human" {
        println!(
            "{:<6} {:<18} {:<10} {:<10} provenance",
            "shard", "syscall", "decision", "engine"
        );
    }
    let report = replay_live(
        &spec,
        ProfileKind::SyscallComplete,
        ReplayBackend::DracoSw,
        &cfg,
        |tick| {
            if follow {
                for ev in tick.events {
                    print_event(ev);
                }
            }
        },
    );
    if !follow {
        for ev in &report.events {
            print_event(ev);
        }
    }
    let denials = report.metrics.checker.denials;
    eprintln!(
        "audit: {} denials — {} published, {} dropped ({} ring-full, {} rate-limited)",
        denials,
        report.audit_published,
        report.audit_dropped,
        report.audit_dropped_ring_full,
        report.audit_dropped_rate_limited
    );
    if report.audit_published + report.audit_dropped != denials {
        eprintln!(
            "ERROR: audit accounting broken: {} + {} != {}",
            report.audit_published, report.audit_dropped, denials
        );
        return 1;
    }
    0
}

/// `dracoctl prom-lint <PATH|->` — validates a Prometheus text-format
/// exposition (`dracoctl stats <w> --prom` output, or any scrape body)
/// with [`draco::obs::validate_exposition`]: per-line syntax plus
/// histogram-family consistency. Exits 0 and reports the family count
/// when clean, 1 with the first error otherwise.
fn prom_lint_cmd(args: &[String]) -> i32 {
    let Some(path) = args.first() else {
        eprintln!("usage: dracoctl prom-lint <PATH|->");
        return 2;
    };
    if args.len() > 1 {
        eprintln!("unknown flag `{}`", args[1]);
        return 2;
    }
    let text = if path == "-" {
        let mut buf = String::new();
        std::io::stdin().read_to_string(&mut buf).expect("stdin");
        buf
    } else {
        match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot read `{path}`: {e}");
                return 1;
            }
        }
    };
    match draco::obs::validate_exposition(&text) {
        Ok(families) => {
            println!("ok: {families} metric families, Prometheus text format");
            0
        }
        Err(e) => {
            eprintln!("invalid exposition: {e}");
            1
        }
    }
}

/// `dracoctl shared-replay <workload> [--threads N] [--ops N]
/// [--warmup N] [--seed N] [--mix skewed|uniform] [--batch N]
/// [--json]` — replays a workload through ONE
/// [`draco::core::SharedDracoProcess`] from N worker threads that share
/// its SPT/VAT (paper §VI), and prints per-thread rates plus the
/// contention counters of the lock-free read path. `skewed` gives every
/// thread the same trace seed (shared hot keys, read-dominated after
/// warmup); `uniform` gives each thread its own seed (disjoint keys,
/// writer-heavy). `--batch N` drives each worker through the shared
/// handle's batch entry point (a loop over its scalar check) in groups
/// of `N`.
fn shared_replay_cmd(args: &[String]) -> i32 {
    use draco::workloads::shared_replay::{
        replay_shared, replay_shared_batched, KeyMix, SharedReplayConfig,
    };

    let Some(name) = args.first() else {
        eprintln!(
            "usage: dracoctl shared-replay <workload> [--threads N] [--ops N] [--warmup N] [--seed N] [--mix skewed|uniform] [--batch N] [--json]"
        );
        return 2;
    };
    let Some(spec) = catalog::by_name(name) else {
        eprintln!("unknown workload `{name}` (try `dracoctl workloads`)");
        return 1;
    };
    let mut cfg = SharedReplayConfig {
        threads: 4,
        ops_per_thread: 5_000,
        warmup_ops: 500,
        base_seed: 0,
        mix: KeyMix::Skewed,
    };
    let mut batch = 0usize;
    let mut json = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--threads" => cfg.threads = flag_value(args, &mut i),
            "--ops" => cfg.ops_per_thread = flag_value(args, &mut i),
            "--warmup" => cfg.warmup_ops = flag_value(args, &mut i),
            "--seed" => cfg.base_seed = flag_value(args, &mut i),
            "--mix" => {
                i += 1;
                cfg.mix = match args.get(i).map(String::as_str) {
                    Some("skewed") => KeyMix::Skewed,
                    Some("uniform") => KeyMix::Uniform,
                    other => {
                        eprintln!(
                            "--mix must be `skewed` or `uniform`, got `{}`",
                            other.unwrap_or("")
                        );
                        return 2;
                    }
                };
            }
            "--batch" => batch = flag_value(args, &mut i),
            "--json" => json = true,
            other => {
                eprintln!("unknown flag `{other}`");
                return 2;
            }
        }
        i += 1;
    }
    if cfg.threads == 0 {
        eprintln!("--threads must be nonzero");
        return 2;
    }

    let report = if batch > 0 {
        replay_shared_batched(&spec, ProfileKind::SyscallComplete, &cfg, batch)
    } else {
        replay_shared(&spec, ProfileKind::SyscallComplete, &cfg)
    };
    if json {
        let doc = serde_json::json!({
            "schema": "draco-shared-replay/v1",
            "workload": report.workload,
            "mix": report.mix.label(),
            "wall_ns": report.wall_ns,
            "checks_per_sec": report.checks_per_sec(),
            "cache_hit_rate": report.cache_hit_rate(),
            "threads": report.threads.iter().map(|t| serde_json::json!({
                "thread": t.thread as u64,
                "seed": t.seed,
                "checks": t.checks,
                "allowed": t.allowed,
                "cache_hits": t.cache_hits,
                "elapsed_ns": t.elapsed_ns,
            })).collect::<Vec<_>>(),
            "metrics": report.metrics,
        });
        println!("{}", serde_json::to_string_pretty(&doc).expect("report serializes"));
        return 0;
    }
    println!(
        "{}: {} threads sharing one process ({} mix, {} ops/thread + {} warmup)",
        report.workload,
        report.threads.len(),
        report.mix.label(),
        cfg.ops_per_thread,
        cfg.warmup_ops
    );
    println!(
        "{:<8} {:>12} {:>8} {:>10} {:>10} {:>10}",
        "thread", "seed", "checks", "allowed", "cache-hit", "ns/check"
    );
    for t in &report.threads {
        println!(
            "{:<8} {:>12} {:>8} {:>10} {:>9.1}% {:>10.0}",
            t.thread,
            t.seed,
            t.checks,
            t.allowed,
            if t.checks > 0 {
                t.cache_hits as f64 * 100.0 / t.checks as f64
            } else {
                0.0
            },
            if t.checks > 0 {
                t.elapsed_ns as f64 / t.checks as f64
            } else {
                0.0
            }
        );
    }
    println!(
        "aggregate: {:.0} checks/sec, {:.1}% cache hits",
        report.checks_per_sec(),
        report.cache_hit_rate() * 100.0
    );
    let c = &report.metrics.checker;
    println!(
        "contention: {} seqlock retries, {} VAT lock waits, {} insert races lost",
        c.seqlock_retries, c.vat_lock_waits, c.insert_races_lost
    );
    println!(
        "sampled latency (ns): {}",
        report.latency_hist().quantile_summary()
    );
    0
}

fn trace_cmd(args: &[String]) -> i32 {
    match args.first().map(String::as_str) {
        Some("gen") => {
            let Some(name) = args.get(1) else {
                eprintln!("usage: dracoctl trace gen <workload> [--ops N] [--seed N]");
                return 2;
            };
            let Some(spec) = catalog::by_name(name) else {
                eprintln!("unknown workload `{name}` (try `dracoctl workloads`)");
                return 1;
            };
            let mut ops = spec.default_ops;
            let mut seed = 0u64;
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "--ops" => ops = flag_value(args, &mut i),
                    "--seed" => seed = flag_value(args, &mut i),
                    other => {
                        eprintln!("unknown flag `{other}`");
                        return 2;
                    }
                }
                i += 1;
            }
            let trace = TraceGenerator::new(&spec, seed).generate(ops);
            println!("{}", trace.to_json());
            0
        }
        Some("analyze") => {
            let Some(path) = args.get(1) else {
                eprintln!("usage: dracoctl trace analyze <PATH.json|->");
                return 2;
            };
            let json = if path == "-" {
                let mut buf = String::new();
                std::io::stdin().read_to_string(&mut buf).expect("stdin");
                buf
            } else {
                match std::fs::read_to_string(path) {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("cannot read `{path}`: {e}");
                        return 1;
                    }
                }
            };
            let trace = match SyscallTrace::from_json(&json) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cannot parse trace: {e}");
                    return 1;
                }
            };
            let report = LocalityReport::analyze(&trace);
            println!(
                "{}: {} calls, top-10 coverage {:.1}%",
                trace.workload(),
                report.total_calls(),
                report.top_n_coverage(10) * 100.0
            );
            for row in report.rows().iter().take(10) {
                println!(
                    "  {:<16} {:>6.2}%  {} sets, hot reuse distance {:.0}",
                    row.name,
                    row.fraction * 100.0,
                    row.breakdown.distinct_sets,
                    row.hot_mean_reuse_distance
                );
            }
            0
        }
        Some(name) => span_trace_cmd(name, &args[1..]),
        None => {
            eprintln!("usage: dracoctl trace <gen|analyze|WORKLOAD> ...");
            2
        }
    }
}

/// `dracoctl trace <workload> [--format chrome|folded] [--ops N]
/// [--seed N] [--sample N] [--hw] [--out PATH]` — replays a generated
/// workload under the sampled span tracer and exports the stage spans.
/// Default: the software checker's flow stages (SPT lookup, CRC hash,
/// per-way VAT probes, fallback filter, VAT insert); `--hw` runs the
/// hardware simulator instead, adding the STB/SLB/temporary-buffer
/// stages. `chrome` emits Chrome trace / Perfetto JSON; `folded` emits
/// flamegraph-collapsed `class;stage count` lines.
fn span_trace_cmd(name: &str, args: &[String]) -> i32 {
    use draco::obs::{chrome_trace_json, folded_stacks, SpanTracer};

    let Some(spec) = catalog::by_name(name) else {
        eprintln!("unknown workload `{name}` (try `dracoctl workloads`)");
        return 1;
    };
    let mut ops = spec.default_ops;
    let mut seed = 0u64;
    let mut sample = SpanTracer::DEFAULT_SAMPLE_INTERVAL;
    let mut format = "chrome".to_owned();
    let mut hw = false;
    let mut out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--ops" => ops = flag_value(args, &mut i),
            "--seed" => seed = flag_value(args, &mut i),
            "--sample" => sample = flag_value(args, &mut i),
            "--format" => {
                i += 1;
                format = args.get(i).cloned().unwrap_or(format);
            }
            "--hw" => hw = true,
            "--out" => {
                i += 1;
                out = args.get(i).cloned();
            }
            other => {
                eprintln!("unknown flag `{other}`");
                return 2;
            }
        }
        i += 1;
    }
    if format != "chrome" && format != "folded" {
        eprintln!("--format must be `chrome` or `folded`, got `{format}`");
        return 2;
    }

    let trace = TraceGenerator::new(&spec, seed).generate(ops);
    let profile = profile_for_trace(&trace, ProfileKind::SyscallComplete);
    let spans = if hw {
        let mut core = draco::sim::DracoHwCore::new(draco::sim::SimConfig::table_ii(), &profile)
            .expect("checker builds");
        core.enable_span_trace(SpanTracer::DEFAULT_CAPACITY, sample);
        let _ = core.run(&trace);
        core.take_span_tracer()
            .map(SpanTracer::into_spans)
            .unwrap_or_default()
    } else {
        let mut checker = DracoChecker::from_profile(&profile).expect("checker builds");
        checker.enable_span_trace(SpanTracer::DEFAULT_CAPACITY, sample);
        for req in trace.requests() {
            checker.check(&req);
        }
        checker
            .take_span_tracer()
            .map(SpanTracer::into_spans)
            .unwrap_or_default()
    };
    let text = if format == "chrome" {
        chrome_trace_json(&spans)
    } else {
        folded_stacks(&spans)
    };
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, text) {
                eprintln!("cannot write `{path}`: {e}");
                return 1;
            }
            eprintln!("wrote {} spans to {path}", spans.len());
        }
        None => print!("{text}"),
    }
    0
}

/// Parses a tenant designator: `tenant:7` or bare `7`.
fn parse_tenant(s: &str) -> Option<draco::dracod::TenantId> {
    let raw = s.strip_prefix("tenant:").unwrap_or(s);
    raw.parse::<u32>().ok().map(draco::dracod::TenantId)
}

/// `dracoctl serve` — drives a [`draco::dracod::DracoService`] over a
/// line protocol on stdin. One command per line:
///
/// ```text
/// register <profile>              allocate a tenant with that profile
/// fork <tenant>                   fork a tenant (cold child)
/// exec <tenant> <profile>         replace a tenant's profile, same pid
/// reload <tenant> <profile>       hot-reload through the policy gate
/// submit <tenant> <syscall> [a..] queue one admission request
/// drain                           run queued requests, print decisions
/// stats [tenant]                  service (or one tenant's) counters
/// tenants                         list live tenants
/// retire <tenant>                 remove a tenant
/// quit                            exit
/// ```
///
/// Profiles resolve like everywhere else in dracoctl: catalog names
/// (`docker`, `gvisor`, `firecracker`) or a path to a native/Docker
/// seccomp JSON. Exit code 0 on `quit`/EOF, 2 on usage errors.
fn serve_cmd(args: &[String]) -> i32 {
    use draco::core::ReloadPolicy;
    use draco::dracod::{DracoService, ServiceConfig, ServiceError};

    let mut cfg = ServiceConfig::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--policy" => {
                i += 1;
                cfg.reload_policy = match args.get(i).map(String::as_str) {
                    Some("permissive") => ReloadPolicy::Permissive,
                    Some("require-refinement") => ReloadPolicy::RequireRefinement,
                    other => {
                        eprintln!(
                            "--policy must be `permissive` or `require-refinement`, got `{}`",
                            other.unwrap_or("")
                        );
                        return 2;
                    }
                };
            }
            "--batch" => cfg.batch = flag_value(args, &mut i),
            "--analyzed" => cfg.analyzed = true,
            other => {
                eprintln!("unknown flag `{other}`");
                return 2;
            }
        }
        i += 1;
    }

    let mut svc = DracoService::new(cfg);
    let table = SyscallTable::shared();
    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        line.clear();
        match std::io::BufRead::read_line(&mut stdin.lock(), &mut line) {
            Ok(0) => break, // EOF ends the session cleanly
            Ok(_) => {}
            Err(e) => {
                eprintln!("stdin: {e}");
                return 1;
            }
        }
        let words: Vec<&str> = line.split_whitespace().collect();
        let reply: Result<String, String> = match words.as_slice() {
            [] | ["#", ..] => continue,
            ["quit"] | ["exit"] => break,
            ["register", which] => load_profile(which)
                .and_then(|p| svc.register(&p).map_err(|e| e.to_string()))
                .map(|id| format!("registered {id}")),
            ["fork", t] => parse_tenant(t)
                .ok_or_else(|| format!("bad tenant `{t}`"))
                .and_then(|id| svc.fork(id).map_err(|e| e.to_string()))
                .map(|child| format!("forked {child}")),
            ["exec", t, which] => parse_tenant(t)
                .ok_or_else(|| format!("bad tenant `{t}`"))
                .and_then(|id| {
                    let p = load_profile(which)?;
                    svc.exec(id, &p).map_err(|e| e.to_string())?;
                    Ok(format!("execed {id} -> {}", p.name()))
                }),
            ["reload", t, which] => parse_tenant(t)
                .ok_or_else(|| format!("bad tenant `{t}`"))
                .and_then(|id| {
                    let p = load_profile(which)?;
                    match svc.reload(id, &p) {
                        Ok(decision) => Ok(format!("reloaded {id}: {decision:?}")),
                        Err(ServiceError::Draco(draco::core::DracoError::ReloadRejected {
                            relation,
                            ..
                        })) => Ok(format!("reload refused for {id}: candidate {relation}")),
                        Err(e) => Err(e.to_string()),
                    }
                }),
            ["submit", t, syscall, rest @ ..] => parse_tenant(t)
                .ok_or_else(|| format!("bad tenant `{t}`"))
                .and_then(|id| {
                    let nr = match table.by_name(syscall) {
                        Some(d) => d.id(),
                        None => syscall
                            .parse::<u16>()
                            .map(draco::syscalls::SyscallId::new)
                            .map_err(|_| format!("unknown syscall `{syscall}`"))?,
                    };
                    let values: Vec<u64> = rest
                        .iter()
                        .map(|a| parse_u64(a))
                        .collect::<Result<_, _>>()?;
                    if values.len() > 6 {
                        return Err("at most 6 arguments".to_owned());
                    }
                    let req = SyscallRequest::new(0, nr, ArgSet::from_slice(&values));
                    svc.submit(id, req).map_err(|e| e.to_string())?;
                    Ok(format!("queued {id} {syscall}"))
                }),
            ["drain"] => {
                let mut lines = Vec::new();
                let summary = svc.drain_with(|tenant, req, decision| {
                    lines.push(format!(
                        "  {tenant} {}({:#x},{:#x},{:#x}) -> {} [{:?}]",
                        req.id.as_u16(),
                        req.args.get(0),
                        req.args.get(1),
                        req.args.get(2),
                        decision.action,
                        decision.path,
                    ));
                });
                Ok(format!(
                    "{}drained {} checks over {} tenants ({} allowed, {} denied, {} cache hits)",
                    lines
                        .iter()
                        .map(|l| format!("{l}\n"))
                        .collect::<String>(),
                    summary.checks,
                    summary.tenants_served,
                    summary.allowed,
                    summary.denials,
                    summary.cache_hits
                ))
            }
            ["stats"] => {
                let c = svc.counters();
                let stats = svc.stats();
                Ok(format!(
                    "tenants: {} live / {} registered / {} forked / {} retired\n\
                     reloads: {} permitted, {} refused\n\
                     checks: {} ({} allowed, {} denied, {:.1}% cache hits)\n\
                     audit: {} published, {} dropped",
                    svc.len(),
                    c.registered,
                    c.forked,
                    c.retired,
                    c.reloads_permitted,
                    c.reloads_refused,
                    c.checks,
                    c.allowed,
                    c.denials,
                    stats.cache_hit_rate() * 100.0,
                    svc.audit_ring().events_published(),
                    svc.audit_ring().events_dropped(),
                ))
            }
            ["stats", t] => parse_tenant(t)
                .ok_or_else(|| format!("bad tenant `{t}`"))
                .and_then(|id| {
                    let snap = svc
                        .snapshot(id)
                        .ok_or_else(|| format!("unknown tenant {id}"))?;
                    Ok(format!(
                        "{id}: profile {}, {} queued, {} checks ({} allowed, {} denied, {} cache hits), latency {}",
                        snap.profile,
                        snap.queued,
                        snap.checks,
                        snap.allowed,
                        snap.denials,
                        snap.cache_hits,
                        snap.latency_ns.quantile_summary(),
                    ))
                }),
            ["tenants"] => Ok(svc
                .snapshots()
                .iter()
                .map(|s| {
                    format!(
                        "{} pid={} profile={} queued={} checks={}\n",
                        s.id, s.pid.0, s.profile, s.queued, s.checks
                    )
                })
                .collect::<String>()
                + &format!("{} live", svc.len())),
            ["retire", t] => parse_tenant(t)
                .ok_or_else(|| format!("bad tenant `{t}`"))
                .and_then(|id| svc.retire(id).map_err(|e| e.to_string()))
                .map(|snap| format!("retired {} after {} checks", snap.id, snap.checks)),
            _ => Err(format!("unknown command `{}`", line.trim())),
        };
        match reply {
            Ok(text) => println!("{text}"),
            Err(text) => println!("error: {text}"),
        }
    }
    0
}

/// `dracoctl bench-service` — runs the seeded churn scenario (tenant
/// arrivals and departures, fork storms, flush-heavy admitted reloads
/// plus refused relaxations, deny-perturbed traffic) and reports
/// aggregate throughput with per-tenant latency quantiles.
fn bench_service_cmd(args: &[String]) -> i32 {
    use draco::dracod::{run_churn, ChurnConfig};

    let mut cfg = ChurnConfig::standard();
    let mut json = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => cfg = ChurnConfig::quick(),
            "--tenants" => cfg.tenants = flag_value(args, &mut i),
            "--rounds" => cfg.rounds = flag_value(args, &mut i),
            "--ops" => cfg.ops_per_round = flag_value(args, &mut i),
            "--seed" => cfg.seed = flag_value(args, &mut i),
            "--batch" => cfg.batch = flag_value(args, &mut i),
            "--json" => json = true,
            other => {
                eprintln!("unknown flag `{other}`");
                return 2;
            }
        }
        i += 1;
    }
    if cfg.rounds == 0 || cfg.tenants == 0 {
        eprintln!("--tenants and --rounds must be nonzero");
        return 2;
    }

    let report = run_churn(&cfg);
    let section = report.section();
    if json {
        let doc = serde_json::json!({
            "schema": section.schema,
            "service": section,
            "per_tenant": report.per_tenant,
        });
        println!("{}", serde_json::to_string_pretty(&doc).expect("report serializes"));
        return 0;
    }
    println!(
        "churn: {} tenants ({} forked, {} retired) over {} rounds, seed {}",
        section.tenants, section.forks, section.retired, section.rounds, cfg.seed
    );
    println!(
        "reloads: {} admitted (flush-heavy), {} refused by the policy gate",
        section.reloads_permitted, section.reloads_refused
    );
    println!(
        "checks: {} at {:.0}/sec, {:.1}% cache hits, {:.1}% denied",
        section.checks,
        section.checks_per_sec,
        section.cache_hit_rate * 100.0,
        section.deny_rate * 100.0
    );
    println!(
        "audit: {} published, {} dropped (accounted)",
        section.audit_published, section.audit_dropped
    );
    println!(
        "service latency (ns): p50 <= {}, p95 <= {}, p99 <= {} over {} window intervals",
        section.p50_latency_ns,
        section.p95_latency_ns,
        section.p99_latency_ns,
        section.intervals_pushed
    );
    println!("decision digest: {:#018x}", section.decision_digest);
    println!(
        "{:<10} {:<28} {:>8} {:>8} {:>10} {:>10} {:>10}",
        "tenant", "profile", "checks", "denied", "p50-ns", "p95-ns", "p99-ns"
    );
    for t in &report.per_tenant {
        println!(
            "tenant:{:<4} {:<28} {:>8} {:>8} {:>10} {:>10} {:>10}",
            t.id, t.profile, t.checks, t.denials, t.p50_ns, t.p95_ns, t.p99_ns
        );
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn analyze_accepts_every_catalog_profile() {
        for name in ["docker", "gvisor", "firecracker"] {
            assert_eq!(analyze_cmd(&argv(&[name])), 0, "{name} must be clean");
            assert_eq!(
                analyze_cmd(&argv(&[name, "--strict"])),
                0,
                "{name} must be lint-free"
            );
            assert_eq!(analyze_cmd(&argv(&[name, "--format", "json"])), 0);
        }
    }

    #[test]
    fn compile_dumps_every_catalog_profile_and_rejects_bad_usage() {
        for name in ["docker", "gvisor", "firecracker"] {
            assert_eq!(compile_cmd(&argv(&[name])), 0, "{name} must compile");
        }
        assert_eq!(compile_cmd(&argv(&[])), 2);
        assert_eq!(compile_cmd(&argv(&["docker", "--bogus"])), 2);
        assert_eq!(compile_cmd(&argv(&["/nonexistent/profile.json"])), 1);
    }

    #[test]
    fn compile_selfcheck_proves_every_catalog_dag() {
        for name in ["docker", "gvisor", "firecracker"] {
            assert_eq!(
                compile_cmd(&argv(&[name, "--selfcheck"])),
                0,
                "{name} DAG must prove equivalent"
            );
        }
    }

    #[test]
    fn diff_exit_codes_encode_the_relation() {
        // Identical profiles: equivalent, exit 0 (both formats).
        assert_eq!(diff_cmd(&argv(&["docker", "docker"])), 0);
        assert_eq!(diff_cmd(&argv(&["docker", "docker", "--format", "json"])), 0);
        // gvisor → docker relaxes somewhere: exit 2, symmetric direction.
        let forward = diff_cmd(&argv(&["docker", "gvisor"]));
        let backward = diff_cmd(&argv(&["gvisor", "docker"]));
        assert_eq!(forward, 2, "docker→gvisor relaxes at least one syscall");
        assert_eq!(backward, 2, "so the reverse cannot be a pure refinement either");
    }

    #[test]
    fn diff_refines_exits_one() {
        // A strictly tightened profile: drop one rule from firecracker.
        let mut tight = firecracker();
        let dropped = firecracker().rules().next().unwrap().0;
        assert!(tight.deny(dropped));
        let dir = std::env::temp_dir().join("dracoctl_diff_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tight.json");
        std::fs::write(&path, profile_to_json(&tight)).unwrap();
        let arg = path.to_str().unwrap().to_owned();
        assert_eq!(diff_cmd(&argv(&["firecracker", &arg])), 1);
        assert_eq!(
            diff_cmd(&argv(&["firecracker", &arg, "--format", "json", "--witnesses", "1"])),
            1
        );
        // The reverse direction is a relaxation.
        assert_eq!(diff_cmd(&argv(&[&arg, "firecracker"])), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn diff_rejects_bad_usage() {
        assert_eq!(diff_cmd(&argv(&[])), 2);
        assert_eq!(diff_cmd(&argv(&["docker"])), 2);
        assert_eq!(diff_cmd(&argv(&["docker", "gvisor", "--format", "xml"])), 2);
        assert_eq!(diff_cmd(&argv(&["docker", "gvisor", "--witnesses", "lots"])), 2);
        assert_eq!(diff_cmd(&argv(&["docker", "gvisor", "--bogus"])), 2);
        assert_eq!(diff_cmd(&argv(&["/nonexistent.json", "docker"])), 1);
    }

    #[test]
    fn diff_strict_flags_dead_rules() {
        use draco::profiles::{ArgPolicy, RuleSource, SyscallRule};
        // A profile with an empty-whitelist (dead) rule is equivalent to
        // itself, but --strict turns the dead rule into exit 2.
        let mut p = firecracker();
        p.allow(
            SyscallId::new(1001),
            SyscallRule {
                args: ArgPolicy::Whitelist {
                    mask: draco::syscalls::ArgBitmask::from_widths([8, 0, 0, 0, 0, 0]),
                    sets: Vec::new(),
                },
                source: RuleSource::Application,
            },
        );
        let dir = std::env::temp_dir().join("dracoctl_diff_dead_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dead.json");
        std::fs::write(&path, profile_to_json(&p)).unwrap();
        let arg = path.to_str().unwrap().to_owned();
        assert_eq!(diff_cmd(&argv(&[&arg, &arg])), 0);
        assert_eq!(diff_cmd(&argv(&[&arg, &arg, "--strict"])), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn analyze_surfaces_skipped_imports_and_strict_makes_them_problems() {
        let dir = std::env::temp_dir().join("dracoctl_skip_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("typo.json");
        std::fs::write(
            &path,
            r#"{"defaultAction": "SCMP_ACT_ERRNO",
                "syscalls": [{"names": ["read", "not_a_syscall"],
                              "action": "SCMP_ACT_ALLOW"}]}"#,
        )
        .unwrap();
        let arg = path.to_str().unwrap();
        // A warning alone does not make the analysis non-clean…
        assert_eq!(analyze_cmd(&argv(&[arg])), 0);
        assert_eq!(analyze_cmd(&argv(&[arg, "--format", "json"])), 0);
        // …but strict mode turns unenforced names into problems.
        assert_eq!(analyze_cmd(&argv(&[arg, "--strict"])), 1);
        let (_, skipped) = load_profile_import(arg).unwrap();
        assert_eq!(skipped, vec!["not_a_syscall".to_owned()]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn analyze_rejects_bad_usage() {
        assert_eq!(analyze_cmd(&argv(&[])), 2);
        assert_eq!(analyze_cmd(&argv(&["docker", "--format", "xml"])), 2);
        assert_eq!(analyze_cmd(&argv(&["docker", "--bogus"])), 2);
        assert_eq!(analyze_cmd(&argv(&["/nonexistent/profile.json"])), 1);
    }

    #[test]
    fn shared_replay_runs_and_rejects_bad_usage() {
        assert_eq!(
            shared_replay_cmd(&argv(&[
                "pipe", "--threads", "2", "--ops", "300", "--warmup", "30"
            ])),
            0
        );
        assert_eq!(
            shared_replay_cmd(&argv(&[
                "pipe", "--threads", "2", "--ops", "300", "--warmup", "30", "--mix", "uniform",
                "--json"
            ])),
            0
        );
        assert_eq!(
            shared_replay_cmd(&argv(&[
                "pipe", "--threads", "2", "--ops", "300", "--warmup", "30", "--batch", "16"
            ])),
            0
        );
        assert_eq!(shared_replay_cmd(&argv(&[])), 2);
        assert_eq!(shared_replay_cmd(&argv(&["no-such-workload"])), 1);
        assert_eq!(shared_replay_cmd(&argv(&["pipe", "--mix", "zipf"])), 2);
        assert_eq!(shared_replay_cmd(&argv(&["pipe", "--threads", "0"])), 2);
        assert_eq!(shared_replay_cmd(&argv(&["pipe", "--bogus"])), 2);
    }

    #[test]
    fn stats_replays_batched_and_scalar() {
        assert_eq!(stats_cmd(&argv(&["pipe", "--ops", "400"])), 0);
        assert_eq!(stats_cmd(&argv(&["pipe", "--ops", "400", "--batch", "32"])), 0);
        assert_eq!(
            stats_cmd(&argv(&["pipe", "--ops", "400", "--batch", "32", "--json"])),
            0
        );
        assert_eq!(stats_cmd(&argv(&["pipe", "--ops", "400", "--prom"])), 0);
    }

    #[test]
    fn stats_quick_summarizes_a_bench_report() {
        let dir = std::env::temp_dir().join("dracoctl_quick_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("quick.json");
        std::fs::write(
            &path,
            r#"{"schema":"draco-throughput/v9","workload":"pipe",
                "ops_per_shard":5000,"warmup_ops":1000,"seed":2020,"shards":2,
                "series":[
                  {"name":"draco-sw.single_checks_per_sec","unit":"checks/s","value":1e6},
                  {"name":"timeseries.audit_dropped","unit":"count","value":0}]}"#,
        )
        .unwrap();
        let arg = path.to_str().unwrap();
        assert_eq!(stats_cmd(&argv(&["--quick", arg])), 0);
        assert_eq!(stats_cmd(&argv(&["--quick", arg, "--bogus"])), 2);
        assert_eq!(stats_cmd(&argv(&["--quick", "/nonexistent/quick.json"])), 1);
        let old_schema = dir.join("v8.json");
        std::fs::write(&old_schema, r#"{"schema":"draco-throughput/v8"}"#).unwrap();
        let old_arg = old_schema.to_str().unwrap();
        assert_eq!(stats_cmd(&argv(&["--quick", old_arg])), 1, "no series");
        let _ = std::fs::remove_file(&old_schema);
        let not_a_report = dir.join("other.json");
        std::fs::write(&not_a_report, r#"{"schema":"draco-analysis/v1"}"#).unwrap();
        assert_eq!(
            stats_cmd(&argv(&["--quick", not_a_report.to_str().unwrap()])),
            1
        );
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&not_a_report);
    }

    #[test]
    fn top_runs_every_backend_and_rejects_bad_usage() {
        let base = &["pipe", "--ops", "400", "--warmup", "100", "--rounds", "4"];
        assert_eq!(top_cmd(&argv(base)), 0);
        let mut batched = base.to_vec();
        batched.extend(["--batch", "32", "--deny-every", "9"]);
        assert_eq!(top_cmd(&argv(&batched)), 0);
        let mut dag = base.to_vec();
        dag.push("--dag");
        assert_eq!(top_cmd(&argv(&dag)), 0);
        assert_eq!(top_cmd(&argv(&[])), 2);
        assert_eq!(top_cmd(&argv(&["no-such-workload"])), 1);
        assert_eq!(top_cmd(&argv(&["pipe", "--bogus"])), 2);
        assert_eq!(top_cmd(&argv(&["pipe", "--rounds", "0"])), 2);
    }

    #[test]
    fn audit_streams_in_both_formats_and_accounts() {
        let base = &["sysbench-fio", "--ops", "400", "--warmup", "100", "--rounds", "4"];
        assert_eq!(audit_cmd(&argv(base)), 0);
        let mut jsonl = base.to_vec();
        jsonl.extend(["--format", "jsonl", "--follow"]);
        assert_eq!(audit_cmd(&argv(&jsonl)), 0);
        // Throttled ring: accounting must still balance (exit 0).
        let mut throttled = base.to_vec();
        throttled.extend(["--burst", "4", "--refill", "2"]);
        assert_eq!(audit_cmd(&argv(&throttled)), 0);
        assert_eq!(audit_cmd(&argv(&[])), 2);
        assert_eq!(audit_cmd(&argv(&["no-such-workload"])), 1);
        assert_eq!(audit_cmd(&argv(&["pipe", "--format", "xml"])), 2);
        assert_eq!(audit_cmd(&argv(&["pipe", "--bogus"])), 2);
    }

    #[test]
    fn prom_lint_validates_rendered_expositions() {
        let dir = std::env::temp_dir().join("dracoctl_prom_test");
        std::fs::create_dir_all(&dir).unwrap();
        let spec = catalog::by_name("pipe").unwrap();
        let trace = TraceGenerator::new(&spec, 0).generate(400);
        let profile = profile_for_trace(&trace, ProfileKind::SyscallComplete);
        let mut checker = DracoChecker::from_profile(&profile).unwrap();
        for req in trace.requests() {
            checker.check(&req);
        }
        let good = dir.join("metrics.prom");
        std::fs::write(&good, draco::obs::render_prometheus(&checker.metrics())).unwrap();
        assert_eq!(prom_lint_cmd(&argv(&[good.to_str().unwrap()])), 0);
        let bad = dir.join("bad.prom");
        std::fs::write(&bad, "draco_orphan_sample 1\n").unwrap();
        assert_eq!(prom_lint_cmd(&argv(&[bad.to_str().unwrap()])), 1);
        assert_eq!(prom_lint_cmd(&argv(&[])), 2);
        assert_eq!(prom_lint_cmd(&argv(&["/nonexistent.prom"])), 1);
        assert_eq!(
            prom_lint_cmd(&argv(&[good.to_str().unwrap(), "--bogus"])),
            2
        );
        let _ = std::fs::remove_file(&good);
        let _ = std::fs::remove_file(&bad);
    }

    #[test]
    fn analysis_json_is_wellformed_and_carries_the_verdict_table() {
        let profile = docker_default();
        let analysis = analyze_profile(&profile).unwrap();
        let problems = analysis_problems(&analysis, false);
        assert!(problems.is_empty(), "{problems:?}");
        let text = analysis_json(&analysis, &problems, &[]);
        let doc: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        assert_eq!(
            doc.get("schema").and_then(|v| v.as_str()),
            Some("draco-analysis/v1")
        );
        assert_eq!(doc.get("clean").and_then(|v| v.as_bool()), Some(true));
        let syscalls = doc.get("syscalls").and_then(|v| v.as_array()).unwrap();
        assert_eq!(syscalls.len(), profile.allowed_syscall_count());
        assert!(syscalls.iter().any(|s| {
            s.get("syscall").and_then(|v| v.as_str()) == Some("personality")
                && s.get("verdict").and_then(|v| v.as_str()) == Some("arg-dependent")
        }));
    }
}
