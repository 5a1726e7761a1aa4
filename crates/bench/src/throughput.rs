//! The tracked wall-clock throughput harness behind `repro throughput`.
//!
//! Unlike the modeled-nanosecond experiments, this measures how many
//! real checks per second each backend sustains on the host machine,
//! single-threaded and across N parallel shards, and serializes the
//! result as `BENCH_throughput.json` so throughput is tracked in-repo
//! across changes to the hot path.

use std::time::Instant;

use serde::{Deserialize, Serialize};

use draco::bpf::SeccompData;
use draco::dracod::{run_churn, ChurnConfig};
use draco::obs::{MetricsRegistry, Span, TimeseriesDump};
use draco::profiles::{compile_dag, compile_stacked, FilterLayout, ProfileKind};
use draco::workloads::catalog;
use draco::workloads::live::{replay_live, LiveConfig};
use draco::workloads::replay::{
    replay_parallel, replay_parallel_traced, ReplayBackend, ReplayConfig, ReplayReport, TraceConfig,
};
use draco::workloads::shared_replay::{replay_shared, KeyMix, SharedReplayConfig};
use draco::workloads::timing::profile_for_trace;
use draco::workloads::TraceGenerator;
use draco::workloads::WorkloadSpec;

/// Schema tag written into every report (bump on breaking changes).
/// v9 holds every measurement as one flat list of named [`Series`], so a
/// new measurement is a new name, not a new section type.
pub const SCHEMA: &str = "draco-throughput/v9";

/// Harness parameters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ThroughputConfig {
    /// Workload to replay (must exist in the catalog).
    pub workload: String,
    /// Measured checks per shard.
    pub ops_per_shard: usize,
    /// Unmeasured warm-up checks per shard.
    pub warmup_ops: usize,
    /// Base seed; shard `i` replays seed `base + i`.
    pub seed: u64,
    /// Shard (thread) count for the multi-thread run.
    pub shards: usize,
    /// Worker-thread count for the shared-process runs (the `shared.*`
    /// series).
    pub shared_threads: usize,
    /// Requests per `syscall_batch` call in the batch-backend runs (the
    /// `draco-batch.*` series).
    pub batch: usize,
}

impl ThroughputConfig {
    /// Default batch size for the batch backend: big enough to amortize
    /// per-batch staging (the commit fast path makes staging
    /// O(distinct), so larger batches keep paying off), small enough
    /// that requests plus staging stay cache-resident.
    pub const DEFAULT_BATCH: usize = 128;

    /// Defaults sized for a stable measurement (a few seconds total).
    pub fn standard() -> Self {
        ThroughputConfig {
            workload: "pipe".to_owned(),
            ops_per_shard: 200_000,
            warmup_ops: 20_000,
            seed: 2020,
            shards: default_shards(),
            shared_threads: default_shards(),
            batch: Self::DEFAULT_BATCH,
        }
    }

    /// A sub-second configuration for smoke tests (`--quick`).
    pub fn quick() -> Self {
        ThroughputConfig {
            ops_per_shard: 5_000,
            warmup_ops: 1_000,
            ..ThroughputConfig::standard()
        }
    }
}

/// Worker count for the multi-thread run: available parallelism, capped
/// so the harness behaves on large machines.
pub fn default_shards() -> usize {
    std::thread::available_parallelism()
        .map_or(2, std::num::NonZero::get)
        .clamp(2, 8)
}

/// One named measurement of a report.
///
/// Names are `<section>.<measure>`: the section is a replay backend
/// label (`draco-sw`, `draco-batch`, …), `shared.<mix>`, `dag`,
/// `timeseries` or `service`. The unit is one of `checks/s`, `x` (a
/// same-run speedup), `ratio`, `count` and `ns`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// `<section>.<measure>`, e.g. `draco-sw.single_checks_per_sec`.
    pub name: String,
    /// Unit of `value`.
    pub unit: String,
    /// The measurement; always finite.
    pub value: f64,
}

/// The value of the series called `name`, if present.
pub(crate) fn series_value(series: &[Series], name: &str) -> Option<f64> {
    series.iter().find(|s| s.name == name).map(|s| s.value)
}

const RATE: &str = "checks/s";
const SPEEDUP: &str = "x";
const RATIO: &str = "ratio";
const COUNT: &str = "count";
const NS: &str = "ns";

/// A pusher for the series of one section: `put(measure, unit, value)`
/// appends `<prefix>.<measure>`, clamping a non-finite value to zero.
fn section<'a>(out: &'a mut Vec<Series>, prefix: &'a str) -> impl FnMut(&str, &str, f64) + 'a {
    move |measure, unit, value| {
        out.push(Series {
            name: format!("{prefix}.{measure}"),
            unit: unit.to_owned(),
            value: finite_or_zero(value),
        });
    }
}

/// The full report `repro throughput` prints and writes.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ThroughputReport {
    /// Schema tag ([`SCHEMA`]).
    pub schema: String,
    /// Replayed workload.
    pub workload: String,
    /// Measured checks per shard.
    pub ops_per_shard: u64,
    /// Warm-up checks per shard.
    pub warmup_ops: u64,
    /// Base seed.
    pub seed: u64,
    /// Shard count of the multi-thread runs.
    pub shards: u64,
    /// Every measurement, in the order the harness took them.
    pub series: Vec<Series>,
    /// Merged observability registry of every backend's multi-thread
    /// replay: the `replay` section covers all backends' measured
    /// checks; the `checker`/`cuckoo`/`vat` sections come from the
    /// Draco shards (the Seccomp backends have no tables to feed).
    /// Deterministic for a given `(workload, seed, shards)`.
    pub metrics: MetricsRegistry,
}

impl ThroughputReport {
    /// The value of the series called `name`, if present.
    pub fn value(&self, name: &str) -> Option<f64> {
        series_value(&self.series, name)
    }
}

/// Clamps a rate to a finite value. On degenerate runs (zero measured
/// ops, or a measured loop faster than the clock tick) a division can
/// produce `inf`/`NaN`, which the JSON writer emits as `null` — breaking
/// every consumer that parses the rate as a number. Zero is the honest
/// stand-in: the run measured nothing.
fn finite_or_zero(rate: f64) -> f64 {
    if rate.is_finite() {
        rate
    } else {
        0.0
    }
}

/// `num / den`, or zero when the denominator measured nothing.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The series of one replay backend: one-shard and N-shard rates, their
/// ratio, the N-shard cache hit rate and the p50/p99 upper bounds of its
/// sampled per-check latency (every
/// [`draco::workloads::replay::LATENCY_SAMPLE_INTERVAL`]th check; zero
/// when nothing was sampled).
fn push_backend(out: &mut Vec<Series>, single: &ReplayReport, multi: &ReplayReport) {
    let mut put = section(out, single.backend.label());
    let (st, mt) = (single.checks_per_sec(), multi.checks_per_sec());
    put("single_checks_per_sec", RATE, st);
    put("multi_checks_per_sec", RATE, mt);
    put("parallel_speedup", SPEEDUP, ratio(mt, st));
    put("cache_hit_rate", RATIO, multi.cache_hit_rate());
    let latency = multi.latency_hist();
    put("latency_ns_p50", NS, latency.p50().unwrap_or(0) as f64);
    put("latency_ns_p99", NS, latency.p99().unwrap_or(0) as f64);
}

/// The shared-process scaling series (`shared.<mix>.*`): for each key
/// mix, a 1-worker and a `cfg.shared_threads`-worker run of the same
/// shared code path. The contention counters come from the N-worker
/// run and depend on the interleaving, which is why they are series and
/// not part of the deterministic registry.
fn run_shared_section(spec: &WorkloadSpec, cfg: &ThroughputConfig, out: &mut Vec<Series>) {
    for mix in KeyMix::ALL {
        let base = SharedReplayConfig {
            threads: 1,
            ops_per_thread: cfg.ops_per_shard,
            warmup_ops: cfg.warmup_ops,
            base_seed: cfg.seed,
            mix,
        };
        let single = replay_shared(spec, ProfileKind::SyscallComplete, &base);
        let multi = replay_shared(
            spec,
            ProfileKind::SyscallComplete,
            &SharedReplayConfig {
                threads: cfg.shared_threads,
                ..base
            },
        );
        let (st, mt) = (single.checks_per_sec(), multi.checks_per_sec());
        let c = &multi.metrics.checker;
        let prefix = format!("shared.{}", mix.label());
        let mut put = section(out, &prefix);
        put("threads", COUNT, cfg.shared_threads as f64);
        put("single_checks_per_sec", RATE, st);
        put("multi_checks_per_sec", RATE, mt);
        put("scaling", SPEEDUP, ratio(mt, st));
        put("cache_hit_rate", RATIO, multi.cache_hit_rate());
        put("seqlock_retries", COUNT, c.seqlock_retries as f64);
        put("lock_waits", COUNT, c.vat_lock_waits as f64);
        put("insert_races_lost", COUNT, c.insert_races_lost as f64);
    }
}

/// Runs the harness: for each backend, one single-shard replay and one
/// `cfg.shards`-shard replay over the same workload.
///
/// # Panics
///
/// Panics if the workload is not in the catalog or `cfg.shards == 0`.
pub fn run_throughput(cfg: &ThroughputConfig) -> ThroughputReport {
    run_throughput_inner(cfg, None).0
}

/// Like [`run_throughput`], but also returns the interval-by-interval
/// window dump behind the report's `timeseries.*` series — the `repro
/// throughput --timeseries PATH` payload.
///
/// # Panics
///
/// Panics if the workload is not in the catalog or `cfg.shards == 0`.
pub fn run_throughput_full(
    cfg: &ThroughputConfig,
    trace: Option<&TraceConfig>,
) -> (ThroughputReport, Vec<Span>, TimeseriesDump) {
    run_throughput_inner(cfg, trace)
}

/// Like [`run_throughput`], but the multi-thread Draco run carries a
/// sampled span tracer; the merged spans come back alongside the report
/// for export via [`draco::obs::chrome_trace_json`] /
/// [`draco::obs::folded_stacks`].
///
/// # Panics
///
/// Panics if the workload is not in the catalog or `cfg.shards == 0`.
pub fn run_throughput_traced(
    cfg: &ThroughputConfig,
    trace: &TraceConfig,
) -> (ThroughputReport, Vec<Span>) {
    let (report, spans, _) = run_throughput_inner(cfg, Some(trace));
    (report, spans)
}

fn run_throughput_inner(
    cfg: &ThroughputConfig,
    trace: Option<&TraceConfig>,
) -> (ThroughputReport, Vec<Span>, TimeseriesDump) {
    let spec = catalog::by_name(&cfg.workload)
        .unwrap_or_else(|| panic!("unknown workload `{}`", cfg.workload));
    let kind = ProfileKind::SyscallComplete;
    let base = ReplayConfig {
        shards: 1,
        ops_per_shard: cfg.ops_per_shard,
        warmup_ops: cfg.warmup_ops,
        base_seed: cfg.seed,
    };
    let multi_cfg = ReplayConfig {
        shards: cfg.shards,
        ..base
    };
    let mut series = Vec::new();
    let mut metrics = MetricsRegistry::default();
    let mut spans = Vec::new();
    for backend in ReplayBackend::ALL {
        let single = replay_parallel(&spec, kind, backend, &base);
        // Only the Draco backend has staged pipeline spans; tracing the
        // Seccomp runs would yield nothing, so don't pay for it.
        let multi = match trace {
            Some(tc) if backend == ReplayBackend::DracoSw => {
                let (multi, traced) = replay_parallel_traced(&spec, kind, backend, &multi_cfg, tc);
                spans = traced;
                multi
            }
            _ => replay_parallel(&spec, kind, backend, &multi_cfg),
        };
        metrics.merge(&multi.metrics);
        push_backend(&mut series, &single, &multi);
    }
    run_shared_section(&spec, cfg, &mut series);
    run_batch_section(&spec, cfg, &base, &multi_cfg, &mut series, &mut metrics);
    run_dag_section(&spec, cfg, &mut series);
    let dump = run_timeseries_section(&spec, cfg, &mut series);
    run_service_section(cfg, &mut series);
    let report = ThroughputReport {
        schema: SCHEMA.to_owned(),
        workload: cfg.workload.clone(),
        ops_per_shard: cfg.ops_per_shard as u64,
        warmup_ops: cfg.warmup_ops as u64,
        seed: cfg.seed,
        shards: cfg.shards as u64,
        series,
        metrics,
    };
    (report, spans, dump)
}

/// The `service.*` series: the `dracod` churn scenario sized to the
/// configured op budget — tenant arrivals and departures, fork storms,
/// admitted and refused hot-reloads, all multiplexed through one
/// admission service. Counters are deterministic for a given
/// `(ops_per_shard, seed, batch)`; only the wall-clock rate and latency
/// quantiles vary run to run. The decision digest, a 64-bit witness an
/// `f64` cannot hold exactly, is left to `dracoctl bench-service`.
fn run_service_section(cfg: &ThroughputConfig, out: &mut Vec<Series>) {
    let churn = ChurnConfig::for_ops(cfg.ops_per_shard, cfg.seed, cfg.batch);
    let s = run_churn(&churn).section();
    let mut put = section(out, "service");
    for (measure, value) in [
        ("tenants", s.tenants),
        ("rounds", s.rounds),
        ("forks", s.forks),
        ("reloads_permitted", s.reloads_permitted),
        ("reloads_refused", s.reloads_refused),
        ("retired", s.retired),
        ("checks", s.checks),
        ("denials", s.denials),
        ("audit_published", s.audit_published),
        ("audit_dropped", s.audit_dropped),
    ] {
        put(measure, COUNT, value as f64);
    }
    put("cache_hit_rate", RATIO, s.cache_hit_rate);
    put("deny_rate", RATIO, s.deny_rate);
    put("checks_per_sec", RATE, s.checks_per_sec);
    put("p50_latency_ns", NS, s.p50_latency_ns as f64);
    put("p95_latency_ns", NS, s.p95_latency_ns as f64);
    put("p99_latency_ns", NS, s.p99_latency_ns as f64);
    put("intervals_pushed", COUNT, s.intervals_pushed as f64);
}

/// The `timeseries.*` series: one deny-heavy live replay of the draco-sw
/// backend, rounds-sliced through the window pump with an unthrottled
/// audit ring attached. Two shards, interleaved on one thread —
/// deterministic counters for a given `(workload, seed)`. Returns the
/// window dump (`draco-timeseries/v1`).
fn run_timeseries_section(
    spec: &WorkloadSpec,
    cfg: &ThroughputConfig,
    out: &mut Vec<Series>,
) -> TimeseriesDump {
    const ROUNDS: usize = 16;
    const DENY_EVERY: usize = 8;
    let live_cfg = LiveConfig {
        replay: ReplayConfig {
            shards: 2,
            ops_per_shard: cfg.ops_per_shard,
            warmup_ops: cfg.warmup_ops,
            base_seed: cfg.seed,
        },
        rounds: ROUNDS,
        // Hold every round: the dump is the complete series.
        window_capacity: ROUNDS,
        audit_capacity: 8192,
        audit_burst: u64::MAX,
        audit_refill_per_round: 0,
        deny_every: DENY_EVERY,
    };
    let live = replay_live(
        spec,
        ProfileKind::SyscallComplete,
        ReplayBackend::DracoSw,
        &live_cfg,
        |_| {},
    );
    let checks = live.total_checks();
    let denials = live.metrics.checker.denials;
    // The stream's losses are accounted, never silent. Hard assert — a
    // mismatch is a telemetry bug, not noise.
    assert_eq!(
        live.audit_published + live.audit_dropped,
        denials,
        "audit accounting must cover every denial"
    );
    let ts = &live.timeseries;
    let mut put = section(out, "timeseries");
    for (measure, value) in [
        ("rounds", live.rounds as u64),
        ("deny_every", DENY_EVERY as u64),
        ("intervals", ts.intervals.len() as u64),
        ("intervals_pushed", ts.intervals_pushed),
        ("intervals_dropped", ts.intervals_dropped),
        ("checks", checks),
        ("denials", denials),
        ("audit_published", live.audit_published),
        ("audit_dropped", live.audit_dropped),
    ] {
        put(measure, COUNT, value as f64);
    }
    put(
        "checks_per_sec",
        RATE,
        ratio(checks as f64 * 1e9, live.wall_ns as f64),
    );
    put(
        "cache_hit_rate",
        RATIO,
        ratio(live.metrics.replay.cache_hits as f64, checks as f64),
    );
    put("deny_rate", RATIO, ratio(denials as f64, checks as f64));
    live.timeseries
}

/// The `dag.*` series: every filter engine timed over a deny-heavy
/// stream built by perturbing the trace's argument values outside the
/// whitelists the profile recorded from that same trace, so each check
/// would miss the VAT and the engine itself is the whole cost. All three
/// engines are driven directly (no SPT/VAT in front), over the identical
/// stream, in the same process — the speedups compare engines, not runs.
///
/// # Panics
///
/// Panics if the engines ever disagree on a verdict — the differential
/// suites prove they cannot, so a disagreement here is a harness bug.
fn run_dag_section(spec: &WorkloadSpec, cfg: &ThroughputConfig, out: &mut Vec<Series>) {
    let trace = TraceGenerator::new(spec, cfg.seed).generate(cfg.ops_per_shard);
    let profile = profile_for_trace(&trace, ProfileKind::SyscallComplete);
    // Linear layout, matching the seccomp replay backends (and real
    // kernel filters — the binary-tree layout is the §XII libseccomp
    // optimization the `repro ablate-opt` study covers separately).
    let interp =
        compile_stacked(&profile, FilterLayout::Linear).expect("generated profiles always compile");
    let compiled = interp.compiled();
    let dag = compile_dag(&profile).expect("generated profiles always compile");
    // Perturb every argument outside the recorded whitelists: XOR with a
    // constant no recorded value uses, so argument-checked syscalls are
    // denied and nothing upstream could have cached the pair.
    let stream: Vec<SeccompData> = trace
        .requests()
        .map(|req| {
            let mut args = [0u64; 6];
            for (i, slot) in args.iter_mut().enumerate() {
                *slot = req.args.get(i) ^ 0xdead_0000_0000;
            }
            SeccompData::for_syscall(i32::from(req.id.as_u16()), &args)
        })
        .collect();
    let warm = cfg.warmup_ops.min(stream.len());
    let time_engine = |run: &mut dyn FnMut(&SeccompData) -> bool| -> (f64, u64) {
        for data in &stream[..warm] {
            std::hint::black_box(run(data));
        }
        let mut denied = 0u64;
        let start = Instant::now();
        for data in &stream {
            if !run(data) {
                denied += 1;
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        (ratio(stream.len() as f64, elapsed), denied)
    };
    let (interp_rate, interp_denied) = time_engine(&mut |data| {
        interp
            .run(data)
            .expect("generated filters cannot fault")
            .action
            .permits()
    });
    let (compiled_rate, compiled_denied) = time_engine(&mut |data| {
        compiled
            .run(data)
            .expect("generated filters cannot fault")
            .action
            .permits()
    });
    let (dag_rate, dag_denied) = time_engine(&mut |data| {
        dag.run(data)
            .expect("generated filters cannot fault")
            .action
            .permits()
    });
    assert_eq!(interp_denied, compiled_denied, "engines must agree");
    assert_eq!(interp_denied, dag_denied, "engines must agree");
    let stats = dag.stats();
    let mut put = section(out, "dag");
    put("checks", COUNT, stream.len() as f64);
    put(
        "deny_rate",
        RATIO,
        ratio(interp_denied as f64, stream.len() as f64),
    );
    put("interp_checks_per_sec", RATE, interp_rate);
    put("compiled_checks_per_sec", RATE, compiled_rate);
    put("dag_checks_per_sec", RATE, dag_rate);
    put("speedup_vs_interp", SPEEDUP, ratio(dag_rate, interp_rate));
    put(
        "speedup_vs_compiled",
        SPEEDUP,
        ratio(dag_rate, compiled_rate),
    );
    put("nodes", COUNT, stats.nodes as f64);
    put("fallback_nodes", COUNT, stats.fallback as f64);
    put("table_entries", COUNT, stats.table_entries as f64);
    put("closed_entries", COUNT, stats.closed_entries as f64);
}

/// The `draco-batch.*` series: the backend series of one single-shard
/// and one multi-shard draco-batch run, plus the batch size, the batch
/// counters of both runs and the single-thread speedup over the same
/// run's scalar `draco-sw` rate (cross-run comparisons would fold host
/// noise into the speedup).
fn run_batch_section(
    spec: &WorkloadSpec,
    cfg: &ThroughputConfig,
    base: &ReplayConfig,
    multi_cfg: &ReplayConfig,
    out: &mut Vec<Series>,
    metrics: &mut MetricsRegistry,
) {
    let backend = ReplayBackend::DracoBatch { batch: cfg.batch };
    let kind = ProfileKind::SyscallComplete;
    let single = replay_parallel(spec, kind, backend, base);
    let multi = replay_parallel(spec, kind, backend, multi_cfg);
    let scalar_single = series_value(out, "draco-sw.single_checks_per_sec").unwrap_or(0.0);
    let mut counters = single.metrics.checker;
    counters.merge(&multi.metrics.checker);
    metrics.merge(&multi.metrics);
    push_backend(out, &single, &multi);
    let mut put = section(out, backend.label());
    put("batch", COUNT, cfg.batch as f64);
    put(
        "speedup_vs_scalar",
        SPEEDUP,
        ratio(single.checks_per_sec(), scalar_single),
    );
    put("batches", COUNT, counters.batches as f64);
    put("prefetch_issued", COUNT, counters.prefetch_issued as f64);
    put("miss_dedup_hits", COUNT, counters.miss_dedup_hits as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every replay backend label, the batch backend included.
    const BACKENDS: [&str; 5] = [
        "seccomp-interp",
        "seccomp-compiled",
        "draco-sw",
        "draco-dag",
        "draco-batch",
    ];

    fn tiny() -> ThroughputConfig {
        ThroughputConfig {
            workload: "pipe".to_owned(),
            ops_per_shard: 300,
            warmup_ops: 50,
            seed: 7,
            shards: 2,
            shared_threads: 2,
            batch: 32,
        }
    }

    /// The value of a series the report must carry.
    fn v(report: &ThroughputReport, name: &str) -> f64 {
        report
            .value(name)
            .unwrap_or_else(|| panic!("series `{name}` missing"))
    }

    /// Series that are a pure function of the configuration: no
    /// wall-clock time in them, and none from the shared-process runs,
    /// whose hits and contention depend on the thread interleaving.
    fn deterministic(report: &ThroughputReport) -> Vec<&Series> {
        const TIMED: [&str; 3] = ["checks_per_sec", "speedup", "latency"];
        report
            .series
            .iter()
            .filter(|s| !s.name.starts_with("shared.") && !TIMED.iter().any(|t| s.name.contains(t)))
            .collect()
    }

    #[test]
    fn series_names_are_pinned() {
        let report = run_throughput(&tiny());
        let mut names: Vec<&str> = report.series.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        let backend = |label: &str| {
            [
                "cache_hit_rate",
                "latency_ns_p50",
                "latency_ns_p99",
                "multi_checks_per_sec",
                "parallel_speedup",
                "single_checks_per_sec",
            ]
            .map(|m| format!("{label}.{m}"))
        };
        let shared = |mix: &str| {
            [
                "cache_hit_rate",
                "insert_races_lost",
                "lock_waits",
                "multi_checks_per_sec",
                "scaling",
                "seqlock_retries",
                "single_checks_per_sec",
                "threads",
            ]
            .map(|m| format!("shared.{mix}.{m}"))
        };
        let mut expected: Vec<String> = [
            "dag.checks",
            "dag.closed_entries",
            "dag.compiled_checks_per_sec",
            "dag.dag_checks_per_sec",
            "dag.deny_rate",
            "dag.fallback_nodes",
            "dag.interp_checks_per_sec",
            "dag.nodes",
            "dag.speedup_vs_compiled",
            "dag.speedup_vs_interp",
            "dag.table_entries",
            "draco-batch.batch",
            "draco-batch.batches",
            "draco-batch.miss_dedup_hits",
            "draco-batch.prefetch_issued",
            "draco-batch.speedup_vs_scalar",
            "service.audit_dropped",
            "service.audit_published",
            "service.cache_hit_rate",
            "service.checks",
            "service.checks_per_sec",
            "service.denials",
            "service.deny_rate",
            "service.forks",
            "service.intervals_pushed",
            "service.p50_latency_ns",
            "service.p95_latency_ns",
            "service.p99_latency_ns",
            "service.reloads_permitted",
            "service.reloads_refused",
            "service.retired",
            "service.rounds",
            "service.tenants",
            "timeseries.audit_dropped",
            "timeseries.audit_published",
            "timeseries.cache_hit_rate",
            "timeseries.checks",
            "timeseries.checks_per_sec",
            "timeseries.denials",
            "timeseries.deny_every",
            "timeseries.deny_rate",
            "timeseries.intervals",
            "timeseries.intervals_dropped",
            "timeseries.intervals_pushed",
            "timeseries.rounds",
        ]
        .map(str::to_owned)
        .into_iter()
        .chain(BACKENDS.into_iter().flat_map(backend))
        .chain(["skewed", "uniform"].into_iter().flat_map(shared))
        .collect();
        expected.sort_unstable();
        assert_eq!(names, expected);
        for s in &report.series {
            assert!(s.value.is_finite() && s.value >= 0.0, "{s:?}");
            assert!(
                [RATE, SPEEDUP, RATIO, COUNT, NS].contains(&s.unit.as_str()),
                "{s:?}"
            );
        }
    }

    #[test]
    fn report_shape() {
        let report = run_throughput(&tiny());
        assert_eq!(report.schema, SCHEMA);
        for label in BACKENDS {
            assert!(
                v(&report, &format!("{label}.single_checks_per_sec")) > 0.0,
                "{label}"
            );
            assert!(
                v(&report, &format!("{label}.multi_checks_per_sec")) > 0.0,
                "{label}"
            );
            // Every backend's multi-thread run sampled its latency.
            assert!(
                v(&report, &format!("{label}.latency_ns_p99")) > 0.0,
                "{label}"
            );
        }
        let hit_rate = v(&report, "draco-sw.cache_hit_rate");
        assert!(hit_rate > 0.5);
        assert_eq!(v(&report, "seccomp-interp.cache_hit_rate"), 0.0);
        assert!(report.value("nope").is_none());
        // The shared process, per key mix.
        for mix in KeyMix::ALL {
            let prefix = format!("shared.{}", mix.label());
            assert_eq!(v(&report, &format!("{prefix}.threads")), 2.0);
            assert!(v(&report, &format!("{prefix}.single_checks_per_sec")) > 0.0);
            assert!(v(&report, &format!("{prefix}.multi_checks_per_sec")) > 0.0);
            assert!(v(&report, &format!("{prefix}.scaling")) > 0.0);
        }
        assert!(
            v(&report, "shared.skewed.cache_hit_rate") > 0.5,
            "shared hot keys re-hit"
        );
        // The batched path, against the same run's scalar rate.
        assert_eq!(v(&report, "draco-batch.batch"), 32.0);
        assert!(v(&report, "draco-batch.speedup_vs_scalar") > 0.0);
        assert_eq!(v(&report, "draco-batch.cache_hit_rate"), hit_rate);
        assert!(v(&report, "draco-batch.batches") > 0.0);
        assert!(v(&report, "draco-batch.prefetch_issued") > 0.0);
        // The draco-dag backend agrees with draco-sw on its hit rate.
        assert_eq!(v(&report, "draco-dag.cache_hit_rate"), hit_rate);
        // Raw engines on a deny-heavy stream: no cache in front, so
        // denials dominate.
        assert_eq!(v(&report, "dag.checks"), 300.0);
        let deny_rate = v(&report, "dag.deny_rate");
        assert!(deny_rate > 0.5, "stream built to miss: {deny_rate}");
        assert!(v(&report, "dag.interp_checks_per_sec") > 0.0);
        assert!(v(&report, "dag.compiled_checks_per_sec") > 0.0);
        assert!(v(&report, "dag.dag_checks_per_sec") > 0.0);
        assert!(v(&report, "dag.table_entries") > 0.0);
        assert!(
            v(&report, "dag.closed_entries") > 0.0,
            "specializer closed some syscalls"
        );
        assert!(v(&report, "dag.nodes") > v(&report, "dag.fallback_nodes"));
        // A live deny-heavy replay with exact audit accounting.
        assert_eq!(v(&report, "timeseries.rounds"), 16.0);
        assert_eq!(v(&report, "timeseries.intervals_pushed"), 16.0);
        assert_eq!(
            v(&report, "timeseries.intervals_dropped"),
            0.0,
            "ring sized to hold every round"
        );
        assert_eq!(v(&report, "timeseries.intervals"), 16.0);
        assert_eq!(
            v(&report, "timeseries.checks"),
            600.0,
            "two shards of 300 checks"
        );
        let denials = v(&report, "timeseries.denials");
        assert!(denials > 0.0, "every 8th request perturbed into a denial");
        assert_eq!(
            v(&report, "timeseries.audit_published") + v(&report, "timeseries.audit_dropped"),
            denials
        );
        let ts_deny = v(&report, "timeseries.deny_rate");
        assert!(ts_deny > 0.0 && ts_deny < 0.5);
        // The dracod churn scenario sized to the op budget (300 ops →
        // the 8-tenant quick schedule).
        assert!(
            v(&report, "service.tenants") >= 8.0,
            "quick schedule admits 8+"
        );
        assert_eq!(v(&report, "service.rounds"), 8.0);
        for fired in [
            "forks",
            "retired",
            "reloads_permitted",
            "reloads_refused",
            "checks",
        ] {
            assert!(v(&report, &format!("service.{fired}")) > 0.0, "{fired}");
        }
        assert_eq!(
            v(&report, "service.audit_published") + v(&report, "service.audit_dropped"),
            v(&report, "service.denials")
        );
        let svc_deny = v(&report, "service.deny_rate");
        assert!(svc_deny > 0.0 && svc_deny < 0.5);
        assert!(v(&report, "service.cache_hit_rate") > 0.0);
        assert!(
            v(&report, "service.intervals_pushed") > 0.0,
            "each drain seals a slot"
        );
    }

    #[test]
    fn service_section_deterministic_fields_are_stable() {
        let a = run_throughput(&tiny());
        let b = run_throughput(&tiny());
        let service = |r: &ThroughputReport| -> Vec<Series> {
            deterministic(r)
                .into_iter()
                .filter(|s| s.name.starts_with("service."))
                .cloned()
                .collect()
        };
        assert_eq!(service(&a).len(), 13);
        assert_eq!(service(&a), service(&b));
    }

    #[test]
    fn timeseries_dump_reconstructs_the_section_totals() {
        let (report, _, dump) = run_throughput_full(&tiny(), None);
        assert_eq!(dump.schema, "draco-timeseries/v1");
        assert_eq!(
            dump.intervals.len() as f64,
            v(&report, "timeseries.intervals")
        );
        assert_eq!(
            dump.intervals_pushed as f64,
            v(&report, "timeseries.intervals_pushed")
        );
        let checks = v(&report, "timeseries.checks");
        let denials = v(&report, "timeseries.denials");
        let replayed: u64 = dump.intervals.iter().map(|s| s.delta.replay.checks).sum();
        assert_eq!(replayed as f64, checks, "window deltas cover every check");
        let denied: u64 = dump.intervals.iter().map(|s| s.delta.checker.denials).sum();
        assert_eq!(denied as f64, denials, "window deltas cover every denial");
        assert_eq!(
            dump.intervals.last().unwrap().cumulative.checker.denials as f64,
            denials
        );
        // The dump is a valid draco-timeseries/v1 document.
        let json = serde_json::to_string(&dump).expect("serializes");
        let back: TimeseriesDump = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, dump);
    }

    #[test]
    fn traced_run_yields_spans_and_same_shape() {
        let trace = TraceConfig {
            capacity_per_shard: 1 << 12,
            sample_interval: 1,
        };
        let (report, spans) = run_throughput_traced(&tiny(), &trace);
        assert_eq!(report.schema, SCHEMA);
        let untraced = run_throughput(&tiny());
        let names = |r: &ThroughputReport| -> Vec<String> {
            r.series.iter().map(|s| s.name.clone()).collect()
        };
        assert_eq!(names(&report), names(&untraced));
        assert!(!spans.is_empty(), "draco-sw multi run produced spans");
        // Spans come from the multi-thread run: both shards appear.
        let shards: std::collections::BTreeSet<u32> = spans.iter().map(|s| s.shard).collect();
        assert_eq!(shards.len(), 2, "{shards:?}");
        // At least the acceptance-criteria floor of distinct stages.
        let stages: std::collections::BTreeSet<&str> =
            spans.iter().map(|s| s.stage.label()).collect();
        assert!(stages.len() >= 4, "{stages:?}");
    }

    #[test]
    fn dag_section_deterministic_fields_are_stable() {
        let a = run_throughput(&tiny());
        let b = run_throughput(&tiny());
        let dag = |r: &ThroughputReport| -> Vec<Series> {
            deterministic(r)
                .into_iter()
                .filter(|s| s.name.starts_with("dag."))
                .cloned()
                .collect()
        };
        assert_eq!(dag(&a).len(), 6);
        assert_eq!(dag(&a), dag(&b));
    }

    #[test]
    fn json_round_trip_preserves_deterministic_fields() {
        let report = run_throughput(&tiny());
        let json = serde_json::to_string_pretty(&report).expect("serializes");
        let back: ThroughputReport = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, report);
    }

    #[test]
    fn same_seed_runs_share_deterministic_fields() {
        let a = run_throughput(&tiny());
        let b = run_throughput(&tiny());
        assert_eq!(deterministic(&a), deterministic(&b));
        assert_eq!(a.metrics, b.metrics, "registry holds no wall-clock data");
    }

    #[test]
    fn metrics_section_is_populated() {
        let report = run_throughput(&tiny());
        let m = &report.metrics;
        // replay covers the four standard backends' multi-thread runs
        // plus the batch backend's (the dag series drive raw engines
        // outside the replay harness and feed no registry).
        assert_eq!(m.replay.checks, 5 * 2 * 300);
        assert_eq!(m.replay.shards, 5 * 2);
        // checker/cuckoo come from the Draco shards.
        assert!(m.checker.total() > 0);
        assert!(m.checker.vat_hits > 0);
        assert!(m.cuckoo.probe_length.count() > 0, "histogram populated");
        assert!(m.cuckoo.reuse_distance.count() > 0, "histogram populated");
        assert!(m.vat.tables > 0);
        // And survive the JSON surface intact.
        let json = serde_json::to_string_pretty(&report).expect("serializes");
        assert!(json.contains("\"metrics\""));
        assert!(json.contains("\"reuse_distance\""));
    }

    #[test]
    fn degenerate_runs_produce_finite_rates_and_valid_json() {
        use draco::workloads::replay::{ReplayBackend, ReplayReport};
        // A report whose measured loop registered no time and no checks:
        // every rate must clamp to a finite value, not inf/NaN.
        let empty = ReplayReport {
            backend: ReplayBackend::DracoSw,
            workload: "tiny".to_owned(),
            shards: Vec::new(),
            wall_ns: 0,
            metrics: MetricsRegistry::default(),
        };
        let mut series = Vec::new();
        push_backend(&mut series, &empty, &empty);
        assert_eq!(series.len(), 6);
        for s in &series {
            assert_eq!(s.value, 0.0, "{}", s.name);
        }
        let report = ThroughputReport {
            schema: SCHEMA.to_owned(),
            workload: "tiny".to_owned(),
            ops_per_shard: 0,
            warmup_ops: 0,
            seed: 0,
            shards: 0,
            series,
            metrics: MetricsRegistry::default(),
        };
        let json = serde_json::to_string(&report).expect("serializes");
        assert!(!json.contains("null"), "no non-finite rate leaked: {json}");
        let back: ThroughputReport = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, report);
    }

    #[test]
    fn finite_or_zero_clamps_only_non_finite() {
        assert_eq!(finite_or_zero(12.5), 12.5);
        assert_eq!(finite_or_zero(f64::INFINITY), 0.0);
        assert_eq!(finite_or_zero(f64::NEG_INFINITY), 0.0);
        assert_eq!(finite_or_zero(f64::NAN), 0.0);
    }

    #[test]
    fn default_shards_bounded() {
        let n = default_shards();
        assert!((2..=8).contains(&n));
    }
}
