//! `repro` — regenerate every figure and table of the Draco paper.
//!
//! ```text
//! repro <experiment> [--ops N] [--warmup N] [--seed N] [--json]
//!
//! experiments:
//!   fig2 fig3 fig11 fig12 fig13 fig14 fig15 fig16 fig17
//!   table1 table2 table3 vat
//!   ablate-tree ablate-slb ablate-preload
//!   all
//! ```

use draco_bench::experiments::{self, OverheadRow, RunConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        usage();
        return;
    }
    if args[0] == "throughput" {
        run_throughput_cmd(&args[1..]);
        return;
    }
    if args[0] == "compare" {
        run_compare_cmd(&args[1..]);
        return;
    }
    let mut cfg = RunConfig::default();
    let mut json = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--ops" => {
                cfg.ops = parse(&args, &mut i, "--ops");
            }
            "--warmup" => {
                cfg.warmup = parse(&args, &mut i, "--warmup");
            }
            "--seed" => {
                cfg.seed = parse(&args, &mut i, "--seed");
            }
            "--json" => json = true,
            other => {
                eprintln!("unknown flag `{other}`");
                usage();
                std::process::exit(2);
            }
        }
        i += 1;
    }
    assert!(cfg.warmup < cfg.ops, "--warmup must be below --ops");

    let experiment = args[0].as_str();
    let known: &[&str] = &[
        "fig2", "fig3", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
        "table1", "table2", "table3", "vat", "ablate-tree", "ablate-order", "ablate-slb",
        "ablate-preload", "ablate-ctx", "ablate-smt", "ablate-opt",
    ];
    let selected: Vec<&str> = if experiment == "all" {
        known.to_vec()
    } else if known.contains(&experiment) {
        vec![experiment]
    } else {
        eprintln!("unknown experiment `{experiment}`");
        usage();
        std::process::exit(2);
    };

    for (n, exp) in selected.iter().enumerate() {
        if n > 0 {
            println!();
        }
        run_experiment(exp, &cfg, json);
    }
}

/// Default paths of the tracked report, the untracked `--quick` report
/// and the tracked history, relative to the current directory (run
/// `repro` from the repository root).
const REPORT_PATH: &str = "BENCH_throughput.json";
const QUICK_REPORT_PATH: &str = "target/BENCH_throughput.quick.json";
const HISTORY_PATH: &str = "BENCH_history.jsonl";

/// `repro throughput [--quick] [--ops N] [--warmup N] [--seed N]
/// [--shards N] [--batch N] [--workload W] [--out PATH] [--trace PATH]
/// [--folded PATH] [--timeseries PATH] [--sample N] [--json] [--stats]`
/// — the wall-clock harness. Always writes the JSON report. Standard
/// runs default to the tracked `BENCH_throughput.json` and append a
/// summary line to `BENCH_history.jsonl` for the `repro compare` gate;
/// `--quick` runs default to the untracked
/// `target/BENCH_throughput.quick.json` and leave the history alone.
/// `--trace`/`--folded` run the Draco multi-thread replay under a
/// sampled span tracer and export the spans as Chrome trace JSON /
/// folded flamegraph stacks. `--timeseries` writes the live-replay
/// window ring as a standalone `draco-timeseries/v1` JSON document
/// (tracked bench files are unaffected). `--json` echoes the report to
/// stdout instead of the series table; `--stats` appends the merged
/// metrics snapshot.
fn run_throughput_cmd(args: &[String]) {
    use draco::obs::{chrome_trace_json, folded_stacks};
    use draco::workloads::replay::TraceConfig;
    use draco_bench::history::{append_history, HistoryEntry};
    use draco_bench::throughput::{run_throughput_full, ThroughputConfig};

    let mut cfg = ThroughputConfig::standard();
    let mut json = false;
    let mut stats = false;
    let mut quick = false;
    let mut out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut folded_out: Option<String> = None;
    let mut timeseries_out: Option<String> = None;
    let mut trace_cfg = TraceConfig::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => {
                quick = true;
                let preset = ThroughputConfig::quick();
                cfg.ops_per_shard = preset.ops_per_shard;
                cfg.warmup_ops = preset.warmup_ops;
            }
            "--ops" => cfg.ops_per_shard = parse(args, &mut i, "--ops"),
            "--warmup" => cfg.warmup_ops = parse(args, &mut i, "--warmup"),
            "--seed" => cfg.seed = parse(args, &mut i, "--seed"),
            "--shards" => cfg.shards = parse(args, &mut i, "--shards"),
            "--shared-threads" => cfg.shared_threads = parse(args, &mut i, "--shared-threads"),
            "--batch" => cfg.batch = parse(args, &mut i, "--batch"),
            "--workload" => cfg.workload = parse(args, &mut i, "--workload"),
            "--out" => out = Some(parse(args, &mut i, "--out")),
            "--trace" => trace_out = Some(parse(args, &mut i, "--trace")),
            "--folded" => folded_out = Some(parse(args, &mut i, "--folded")),
            "--timeseries" => timeseries_out = Some(parse(args, &mut i, "--timeseries")),
            "--sample" => trace_cfg.sample_interval = parse(args, &mut i, "--sample"),
            "--json" => json = true,
            "--stats" => stats = true,
            other => {
                eprintln!("unknown flag `{other}`");
                usage();
                std::process::exit(2);
            }
        }
        i += 1;
    }
    assert!(cfg.warmup_ops < cfg.ops_per_shard, "--warmup must be below --ops");
    assert!(cfg.shards > 0, "--shards must be nonzero");
    assert!(cfg.shared_threads > 0, "--shared-threads must be nonzero");
    assert!(cfg.batch > 0, "--batch must be nonzero");
    assert!(trace_cfg.sample_interval > 0, "--sample must be nonzero");

    let tracing = trace_out.is_some() || folded_out.is_some();
    let (report, spans, timeseries) =
        run_throughput_full(&cfg, tracing.then_some(&trace_cfg));
    let text = serde_json::to_string_pretty(&report).expect("report serializes")
        + "\n";
    // Quick runs are smoke tests: keep them away from the tracked
    // baseline unless the caller explicitly routes them with --out.
    let tracked = !quick && out.is_none();
    let default = if quick {
        QUICK_REPORT_PATH
    } else {
        REPORT_PATH
    };
    let path = out.unwrap_or_else(|| default.to_owned());
    if let Some(dir) = std::path::Path::new(&path).parent() {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
    }
    std::fs::write(&path, &text)
        .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    let mut wrote = vec![path.clone()];
    if let Some(trace_path) = &trace_out {
        std::fs::write(trace_path, chrome_trace_json(&spans))
            .unwrap_or_else(|e| panic!("cannot write {trace_path}: {e}"));
        wrote.push(trace_path.clone());
    }
    if let Some(folded_path) = &folded_out {
        std::fs::write(folded_path, folded_stacks(&spans))
            .unwrap_or_else(|e| panic!("cannot write {folded_path}: {e}"));
        wrote.push(folded_path.clone());
    }
    if let Some(ts_path) = &timeseries_out {
        let ts_text =
            serde_json::to_string_pretty(&timeseries).expect("timeseries serializes") + "\n";
        std::fs::write(ts_path, ts_text)
            .unwrap_or_else(|e| panic!("cannot write {ts_path}: {e}"));
        wrote.push(ts_path.clone());
    }
    if tracked {
        let entry = HistoryEntry::from_report(&report);
        append_history(std::path::Path::new(HISTORY_PATH), &entry)
            .unwrap_or_else(|e| panic!("cannot append {HISTORY_PATH}: {e}"));
        wrote.push(HISTORY_PATH.to_owned());
    }

    if json {
        print!("{text}");
        return;
    }
    println!(
        "Throughput — {} ({} ops/shard, {} shards, seed {})",
        report.workload, report.ops_per_shard, report.shards, report.seed
    );
    for s in &report.series {
        println!("  {:<40} {:>20.3} {}", s.name, s.value, s.unit);
    }
    if tracing {
        println!("traced {} spans from the draco-sw multi-thread run", spans.len());
    }
    if stats {
        println!();
        println!("{}", report.metrics);
    }
    for p in &wrote {
        println!("wrote {p}");
    }
}

/// `repro compare [--report PATH] [--history PATH] [--threshold-pct P]
/// [--warn-only]` — the throughput regression gate. Compares the
/// report's `draco-sw.single_checks_per_sec` series against the best comparable
/// entry in the history; exits 1 on a regression beyond the threshold
/// unless `--warn-only` (the CI mode — shared runners are too noisy for
/// a hard gate).
fn run_compare_cmd(args: &[String]) {
    use draco_bench::history::{compare, load_history, DEFAULT_THRESHOLD_PCT};
    use draco_bench::throughput::ThroughputReport;

    let mut report_path = REPORT_PATH.to_owned();
    let mut history_path = HISTORY_PATH.to_owned();
    let mut threshold_pct = DEFAULT_THRESHOLD_PCT;
    let mut warn_only = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--report" => report_path = parse(args, &mut i, "--report"),
            "--history" => history_path = parse(args, &mut i, "--history"),
            "--threshold-pct" => threshold_pct = parse(args, &mut i, "--threshold-pct"),
            "--warn-only" => warn_only = true,
            other => {
                eprintln!("unknown flag `{other}`");
                usage();
                std::process::exit(2);
            }
        }
        i += 1;
    }
    assert!(threshold_pct >= 0.0, "--threshold-pct must be non-negative");

    let text = std::fs::read_to_string(&report_path)
        .unwrap_or_else(|e| panic!("cannot read {report_path}: {e}"));
    let report: ThroughputReport = serde_json::from_str(&text)
        .unwrap_or_else(|e| panic!("{report_path} is not a throughput report: {e}"));
    let history = load_history(std::path::Path::new(&history_path))
        .unwrap_or_else(|e| panic!("cannot read {history_path}: {e}"));
    let outcome = compare(&history, &report, threshold_pct);
    println!("{outcome}");
    if outcome.regressed {
        if warn_only {
            println!("regression beyond threshold (warn-only mode, not failing)");
        } else {
            eprintln!("FAIL: throughput regressed beyond {threshold_pct}%");
            std::process::exit(1);
        }
    }
}

fn parse<T: std::str::FromStr>(args: &[String], i: &mut usize, flag: &str) -> T {
    *i += 1;
    args.get(*i)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| {
            eprintln!("{flag} needs a numeric value");
            std::process::exit(2);
        })
}

fn usage() {
    println!(
        "repro — regenerate the Draco paper's figures and tables\n\n\
         usage: repro <experiment> [--ops N] [--warmup N] [--seed N] [--json]\n\n\
         experiments:\n\
         \x20 fig2          Seccomp overhead per profile (paper Fig. 2)\n\
         \x20 fig3          system call locality (Fig. 3)\n\
         \x20 fig11         software Draco vs Seccomp (Fig. 11)\n\
         \x20 fig12         hardware Draco overhead (Fig. 12)\n\
         \x20 fig13         STB/SLB hit rates (Fig. 13)\n\
         \x20 fig14         #arguments per syscall (Fig. 14)\n\
         \x20 fig15         profile security statistics (Fig. 15)\n\
         \x20 fig16, fig17  appendix reruns on the old-kernel model\n\
         \x20 table1        execution-flow occupancy (Table I)\n\
         \x20 table2        architectural configuration (Table II)\n\
         \x20 table3        area/time/energy constants (Table III)\n\
         \x20 vat           VAT memory footprints (§XI-C)\n\
         \x20 ablate-tree   linear vs binary-tree filters (§XII)\n\
         \x20 ablate-order  filter-chain rule ordering\n\
         \x20 ablate-slb    SLB sizing sweep\n\
         \x20 ablate-preload  STB-driven preloading on/off\n\
         \x20 ablate-ctx    context-switch quantum + SPT save/restore\n\
         \x20 ablate-smt    dedicated vs time-shared vs SMT co-run\n\
         \x20 ablate-opt    peephole-optimized filters vs raw vs draco-sw\n\
         \x20 all           everything above\n\
         \x20 throughput    wall-clock checks/sec per backend, 1 and N threads,\n\
         \x20               plus the dracod multi-tenant service churn, as named\n\
         \x20               series (writes ./BENCH_throughput.json and appends to\n\
         \x20               ./BENCH_history.jsonl; --quick writes the untracked\n\
         \x20               ./target/BENCH_throughput.quick.json; flags: --shards N\n\
         \x20               --shared-threads N --batch N --workload W --out PATH\n\
         \x20               --trace PATH --folded PATH --timeseries PATH\n\
         \x20               --sample N --stats)\n\
         \x20 compare       regression gate: report vs BENCH_history.jsonl\n\
         \x20               (flags: --report PATH --history PATH\n\
         \x20               --threshold-pct P --warn-only; exits 1 on regression)"
    );
}

fn run_experiment(name: &str, cfg: &RunConfig, json: bool) {
    match name {
        "fig2" => overhead_table(
            "Fig. 2 — latency/execution time under Seccomp profiles (normalized to insecure)",
            &experiments::fig2(cfg),
            json,
        ),
        "fig11" => overhead_table(
            "Fig. 11 — software Draco vs Seccomp (normalized to insecure)",
            &experiments::fig11(cfg),
            json,
        ),
        "fig12" => overhead_table(
            "Fig. 12 — hardware Draco (normalized to insecure; paper: within 1%)",
            &experiments::fig12(cfg),
            json,
        ),
        "fig16" => overhead_table(
            "Fig. 16 (appendix) — Seccomp overhead, CentOS 7.6 / Linux 3.10 model",
            &experiments::fig16(cfg),
            json,
        ),
        "fig17" => overhead_table(
            "Fig. 17 (appendix) — software Draco vs Seccomp, old-kernel model",
            &experiments::fig17(cfg),
            json,
        ),
        "fig3" => fig3(cfg, json),
        "fig13" => fig13(cfg, json),
        "fig14" => fig14(cfg, json),
        "fig15" => fig15(cfg, json),
        "table1" => table1(cfg, json),
        "table2" => table2(json),
        "table3" => table3(json),
        "vat" => vat(cfg, json),
        "ablate-tree" => overhead_table(
            "Ablation (§XII) — linear vs binary-tree filter layout",
            &experiments::ablate_tree(cfg),
            json,
        ),
        "ablate-opt" => overhead_table(
            "Ablation — peephole-optimized filters vs raw vs software Draco",
            &experiments::ablate_opt(cfg),
            json,
        ),
        "ablate-order" => overhead_table(
            "Ablation — filter-chain rule ordering (syscall-complete, linear)",
            &experiments::ablate_order(cfg),
            json,
        ),
        "ablate-slb" => ablate_slb(cfg, json),
        "ablate-ctx" => ablate_ctx(cfg, json),
        "ablate-smt" => ablate_smt(cfg, json),
        "ablate-preload" => ablate_preload(cfg, json),
        other => unreachable!("validated experiment {other}"),
    }
}

fn overhead_table(title: &str, rows: &[OverheadRow], json: bool) {
    if json {
        let value = serde_json::json!({
            "title": title,
            "rows": rows.iter().map(|r| serde_json::json!({
                "workload": r.workload,
                "class": r.class.to_string(),
                "values": r.values.iter()
                    .map(|(k, v)| serde_json::json!({"config": k, "normalized": v}))
                    .collect::<Vec<_>>(),
            })).collect::<Vec<_>>(),
        });
        println!("{}", serde_json::to_string_pretty(&value).expect("json"));
        return;
    }
    println!("{title}");
    let labels: Vec<&str> = rows[0].values.iter().map(|(l, _)| l.as_str()).collect();
    print!("{:<22}", "workload");
    for l in &labels {
        print!(" {:>21}", truncate(l, 21));
    }
    println!();
    let mut last_class = None;
    for row in rows {
        if last_class.is_some() && last_class != Some(row.class) && !row.workload.starts_with("average") {
            println!("{:-<22}", "");
        }
        if !row.workload.starts_with("average") {
            last_class = Some(row.class);
        }
        print!("{:<22}", row.workload);
        for (_, v) in &row.values {
            print!(" {:>20.3}x", v);
        }
        println!();
    }
}

fn truncate(s: &str, n: usize) -> &str {
    if s.len() <= n {
        s
    } else {
        &s[s.len() - n..]
    }
}

fn fig3(cfg: &RunConfig, json: bool) {
    let report = experiments::fig3(cfg);
    if json {
        let value = serde_json::json!({
            "title": "Fig. 3",
            "total_calls": report.total_calls(),
            "top20_coverage": report.top_n_coverage(20),
            "rows": report.rows().iter().take(20).map(|r| serde_json::json!({
                "syscall": r.name,
                "fraction": r.fraction,
                "distinct_sets": r.breakdown.distinct_sets,
                "hot_reuse_distance": r.hot_mean_reuse_distance,
            })).collect::<Vec<_>>(),
        });
        println!("{}", serde_json::to_string_pretty(&value).expect("json"));
        return;
    }
    println!("Fig. 3 — frequency of top system calls and reuse distance (macro union)");
    println!(
        "{:<16} {:>7} {:>6} {:>6} {:>6} {:>7} {:>6} {:>6}",
        "syscall", "freq", "set1", "set2", "set3", "other", "#sets", "dist"
    );
    for r in report.rows().iter().take(20) {
        let b = &r.breakdown;
        println!(
            "{:<16} {:>6.2}% {:>6.2} {:>6.2} {:>6.2} {:>7.2} {:>6} {:>6.0}",
            r.name,
            r.fraction * 100.0,
            if b.no_arg > 0.0 { b.no_arg } else { b.top_sets[0] },
            b.top_sets[1],
            b.top_sets[2],
            b.top_sets[3] + b.top_sets[4] + b.other,
            b.distinct_sets,
            r.hot_mean_reuse_distance,
        );
    }
    println!(
        "top-20 coverage: {:.1}% of {} calls (paper: ~86%)",
        report.top_n_coverage(20) * 100.0,
        report.total_calls()
    );
}

fn fig13(cfg: &RunConfig, json: bool) {
    let rows = experiments::fig13(cfg);
    if json {
        let value = serde_json::json!(rows.iter().map(|r| serde_json::json!({
            "workload": r.workload, "stb": r.stb,
            "slb_access": r.slb_access, "slb_preload": r.slb_preload,
        })).collect::<Vec<_>>());
        println!("{}", serde_json::to_string_pretty(&value).expect("json"));
        return;
    }
    println!("Fig. 13 — hit rates of STB and SLB (access and preload), syscall-complete");
    println!(
        "{:<20} {:>8} {:>12} {:>13}",
        "workload", "STB", "SLB access", "SLB preload"
    );
    for r in &rows {
        println!(
            "{:<20} {:>7.1}% {:>11.1}% {:>12.1}%",
            r.workload,
            r.stb * 100.0,
            r.slb_access * 100.0,
            r.slb_preload * 100.0
        );
    }
}

fn fig14(cfg: &RunConfig, json: bool) {
    let rows = experiments::fig14(cfg);
    if json {
        let value = serde_json::json!(rows.iter().map(|(n, d)| serde_json::json!({
            "name": n, "fractions": d.to_vec(),
        })).collect::<Vec<_>>());
        println!("{}", serde_json::to_string_pretty(&value).expect("json"));
        return;
    }
    println!("Fig. 14 — number of checkable arguments of system calls");
    println!(
        "{:<20} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6}  mean",
        "name", "0", "1", "2", "3", "4", "5", "6"
    );
    for (name, d) in &rows {
        let mean: f64 = d.iter().enumerate().map(|(n, f)| n as f64 * f).sum();
        print!("{:<20}", name);
        for f in d {
            print!(" {:>5.1}%", f * 100.0);
        }
        println!("  {mean:.2}");
    }
}

fn fig15(cfg: &RunConfig, json: bool) {
    let rows = experiments::fig15(cfg);
    if json {
        let value = serde_json::json!(rows.iter().map(|r| serde_json::json!({
            "name": r.name,
            "allowed_syscalls": r.stats.allowed_syscalls,
            "runtime_required": r.stats.runtime_required,
            "application_specific": r.stats.application_specific,
            "args_checked": r.stats.args_checked,
            "values_allowed": r.stats.distinct_values_allowed,
        })).collect::<Vec<_>>());
        println!("{}", serde_json::to_string_pretty(&value).expect("json"));
        return;
    }
    println!("Fig. 15 — security statistics of the profiles");
    println!(
        "{:<32} {:>9} {:>8} {:>8} {:>9} {:>8}",
        "profile", "#syscalls", "runtime", "app", "args-chk", "values"
    );
    for r in &rows {
        println!(
            "{:<32} {:>9} {:>8} {:>8} {:>9} {:>8}",
            r.name,
            r.stats.allowed_syscalls,
            r.stats.runtime_required,
            r.stats.application_specific,
            r.stats.args_checked,
            r.stats.distinct_values_allowed
        );
    }
}

fn table1(cfg: &RunConfig, json: bool) {
    let rows = experiments::table1(cfg);
    if json {
        let value = serde_json::json!(rows.iter().map(|r| serde_json::json!({
            "flow": r.flow, "stb": r.stb, "preload": r.preload,
            "access": r.access, "speed": r.speed, "count": r.count,
            "mean_cycles": if r.mean_cycles.is_nan() { None } else { Some(r.mean_cycles) },
        })).collect::<Vec<_>>());
        println!("{}", serde_json::to_string_pretty(&value).expect("json"));
        return;
    }
    println!("Table I — Draco execution flows (measured occupancy, elasticsearch)");
    println!(
        "{:<10} {:>8} {:>9} {:>8} {:>8} {:>10} {:>12}",
        "flow", "STB", "preload", "access", "speed", "count", "avg cycles"
    );
    for r in &rows {
        println!(
            "{:<10} {:>8} {:>9} {:>8} {:>8} {:>10} {:>12.1}",
            r.flow, r.stb, r.preload, r.access, r.speed, r.count, r.mean_cycles
        );
    }
}

fn table2(json: bool) {
    let rows = experiments::table2();
    if json {
        let value = serde_json::json!(rows
            .iter()
            .map(|(k, v)| serde_json::json!({"parameter": k, "value": v}))
            .collect::<Vec<_>>());
        println!("{}", serde_json::to_string_pretty(&value).expect("json"));
        return;
    }
    println!("Table II — architectural configuration");
    for (k, v) in &rows {
        println!("  {:<18} {}", k, v);
    }
}

fn table3(json: bool) {
    let rows = experiments::table3();
    if json {
        let value = serde_json::json!(rows.iter().map(|u| serde_json::json!({
            "unit": u.name, "area_mm2": u.area_mm2, "access_ps": u.access_ps,
            "dyn_read_pj": u.dyn_read_pj, "leak_mw": u.leak_mw,
        })).collect::<Vec<_>>());
        println!("{}", serde_json::to_string_pretty(&value).expect("json"));
        return;
    }
    println!("Table III — Draco hardware analysis at 22 nm (published constants)");
    println!(
        "{:<10} {:>12} {:>14} {:>16} {:>14}",
        "unit", "area (mm2)", "access (ps)", "dyn rd (pJ)", "leak (mW)"
    );
    for u in &rows {
        println!(
            "{:<10} {:>12.4} {:>14.2} {:>16.2} {:>14.3}",
            u.name, u.area_mm2, u.access_ps, u.dyn_read_pj, u.leak_mw
        );
    }
}

fn vat(cfg: &RunConfig, json: bool) {
    let (rows, gm) = experiments::vat_footprints(cfg);
    if json {
        let value = serde_json::json!({
            "rows": rows.iter().map(|(n, kb)| serde_json::json!({
                "workload": n, "kb": kb,
            })).collect::<Vec<_>>(),
            "geomean_kb": gm,
        });
        println!("{}", serde_json::to_string_pretty(&value).expect("json"));
        return;
    }
    println!("VAT memory footprint per process (§XI-C; paper geomean 6.98 KB)");
    for (name, kb) in &rows {
        println!("  {:<20} {:>8.2} KB", name, kb);
    }
    println!("  {:<20} {:>8.2} KB", "geomean", gm);
}

fn ablate_slb(cfg: &RunConfig, json: bool) {
    let rows = experiments::ablate_slb(cfg);
    if json {
        let value = serde_json::json!(rows.iter().map(|(n, pts)| serde_json::json!({
            "workload": n,
            "points": pts.iter().map(|(s, hit, ov)| serde_json::json!({
                "downscale": s, "slb_access_hit": hit, "overhead": ov,
            })).collect::<Vec<_>>(),
        })).collect::<Vec<_>>());
        println!("{}", serde_json::to_string_pretty(&value).expect("json"));
        return;
    }
    println!("Ablation — SLB sizing (syscall-complete)");
    println!(
        "{:<16} {:>10} {:>12} {:>10}",
        "workload", "size", "SLB access", "overhead"
    );
    for (name, points) in &rows {
        for (scale, hit, ov) in points {
            println!(
                "{:<16} {:>9}x {:>11.1}% {:>9.4}x",
                name,
                format!("1/{scale}"),
                hit * 100.0,
                ov
            );
        }
    }
}

fn ablate_ctx(cfg: &RunConfig, json: bool) {
    let rows = experiments::ablate_ctx(cfg);
    if json {
        let value = serde_json::json!(rows.iter().map(|(n, q, fw, fo, cw, co)| {
            serde_json::json!({
                "workload": n, "quantum_us": q,
                "fallbacks_save_restore": fw, "fallbacks_cold": fo,
                "check_cycles_save_restore": cw, "check_cycles_cold": co,
            })
        }).collect::<Vec<_>>());
        println!("{}", serde_json::to_string_pretty(&value).expect("json"));
        return;
    }
    println!("Ablation (§VII-B) — context-switch quantum and SPT save/restore");
    println!(
        "{:<20} {:>9} {:>16} {:>12} {:>16} {:>12}",
        "workload", "quantum", "fallbacks(s/r)", "(cold)", "cycles(s/r)", "(cold)"
    );
    for (name, q, fw, fo, cw, co) in &rows {
        println!(
            "{:<20} {:>7}us {:>16} {:>12} {:>16} {:>12}",
            name, q, fw, fo, cw, co
        );
    }
}

fn ablate_smt(cfg: &RunConfig, json: bool) {
    let rows = experiments::ablate_smt(cfg);
    if json {
        let value = serde_json::json!(rows.iter().map(|(p, d, t, s)| serde_json::json!({
            "pair": p, "check_cycles_dedicated": d,
            "check_cycles_timeshared": t, "check_cycles_smt": s,
        })).collect::<Vec<_>>());
        println!("{}", serde_json::to_string_pretty(&value).expect("json"));
        return;
    }
    println!("Ablation — core sharing: dedicated / time-shared / SMT partitions (check cycles)");
    println!(
        "{:<16} {:>12} {:>12} {:>12}",
        "job pair", "dedicated", "timeshared", "smt"
    );
    for (pair, d, t, s) in &rows {
        println!("{:<16} {:>12} {:>12} {:>12}", pair, d, t, s);
    }
}

fn ablate_preload(cfg: &RunConfig, json: bool) {
    let rows = experiments::ablate_preload(cfg);
    if json {
        let value = serde_json::json!(rows.iter().map(|(n, full, nopre, initial)| {
            serde_json::json!({
                "workload": n, "check_cycles_full": full,
                "check_cycles_no_preload": nopre,
                "check_cycles_initial_design": initial,
            })
        }).collect::<Vec<_>>());
        println!("{}", serde_json::to_string_pretty(&value).expect("json"));
        return;
    }
    println!("Ablation — microarchitecture: full §VI design / no preload / §V-D initial (check cycles)");
    println!(
        "{:<16} {:>14} {:>14} {:>16}",
        "workload", "full", "no-preload", "initial (no SLB)"
    );
    for (name, full, nopre, initial) in &rows {
        println!("{:<16} {:>14} {:>14} {:>16}", name, full, nopre, initial);
    }
}
