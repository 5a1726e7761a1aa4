//! `app-warm` and `app-miss`: one scalar caller, one `DracoProcess` per
//! macro application, one `syscall` at a time.

use std::collections::{BTreeMap, HashSet};
use std::time::{Duration, Instant};

use draco_bpf::SeccompAction;
use draco_core::{CheckResult, DracoChecker, DracoProcess, ProcessId};
use draco_obs::{MetricsRegistry, Span, SpanTracer, Stage};
use draco_profiles::ProfileSpec;
use draco_syscalls::SyscallRequest;
use draco_workloads::catalog;

use crate::inputs::{self, GenTimes};
use crate::oracle::{self, Oracle};
use crate::report::{self, Report};
use crate::stats::{median, ratio, Samples};
use crate::{report_setup, setup_repeats, Config, Sequencer, Workload};

/// One sampled latency per this many calls (a prime, so the sampled
/// positions drift across passes over the same stream). The clock is
/// read only around sampled calls, so it does not dominate a check of
/// about 100 ns.
const SAMPLE_EVERY: u32 = 509;

/// The shape of one workload's inputs and unit of work.
#[derive(Clone, Copy, Debug)]
struct Params {
    apps: usize,
    trace_ops: usize,
    /// Passes over every application's stream per unit.
    passes: usize,
    /// Every n-th request is perturbed into a denial (0: none).
    deny_every: usize,
    /// VAT capacity cap per table (memory pressure), if any.
    vat_cap: Option<usize>,
}

impl Params {
    fn of(cfg: &Config) -> Self {
        let miss = cfg.workload == Workload::AppMiss;
        Params {
            apps: if cfg.tiny { 2 } else { usize::MAX },
            trace_ops: if cfg.tiny { 1024 } else { 16_384 },
            passes: match (cfg.tiny, miss) {
                (true, _) => 1,
                (false, false) => 8,
                (false, true) => 4,
            },
            // app-miss: one request in eight is a denial, and the VAT
            // holds at most 4 argument sets per syscall, fewer than
            // most whitelisted syscalls of these traces cycle through.
            deny_every: if miss { 8 } else { 0 },
            vat_cap: miss.then_some(4),
        }
    }
}

struct App {
    name: &'static str,
    profile: ProfileSpec,
    stream: Vec<SyscallRequest>,
    process: DracoProcess,
    expected: Vec<SeccompAction>,
    out: Vec<CheckResult>,
}

/// Builds every application's inputs and process, and warms the VAT.
fn setup(cfg: &Config, p: &Params, parts: &mut [Vec<f64>; 4]) -> Vec<App> {
    let mut gen = GenTimes::default();
    let mut spawn = Duration::ZERO;
    let mut apps = Vec::new();
    for (i, spec) in catalog::macro_benchmarks().iter().take(p.apps).enumerate() {
        let input = inputs::app(
            spec,
            inputs::mix(cfg.seed, i as u64, 0),
            p.trace_ops,
            &mut gen,
        );
        let t = Instant::now();
        let pid = ProcessId(i as u32 + 1);
        let mut process =
            DracoProcess::spawn(pid, &input.profile).expect("generated profiles compile");
        if let Some(cap) = p.vat_cap {
            // Same engine as the default spawn, with the VAT capped.
            let kind = process.checker().engine_kind();
            *process.checker_mut() = DracoChecker::from_profile_with_engine(&input.profile, kind)
                .expect("generated profiles compile")
                .with_vat_capacity_cap(cap);
        }
        spawn += t.elapsed();
        let stream = inputs::with_denials(&input.requests, p.deny_every);
        apps.push(App {
            name: input.name,
            profile: input.profile,
            out: vec![CheckResult::KILLED; stream.len()],
            expected: Vec::new(),
            stream,
            process,
        });
    }
    let t = Instant::now();
    for app in &mut apps {
        for (slot, req) in app.out.iter_mut().zip(&app.stream) {
            *slot = app.process.syscall(req);
        }
    }
    let warm = t.elapsed();
    for (xs, d) in parts.iter_mut().zip([gen.trace, gen.profile, spawn, warm]) {
        xs.push(d.as_secs_f64());
    }
    apps
}

struct UnitOut {
    wall: Duration,
    busy: Duration,
}

/// One unit: `passes` passes over every application's stream. Only the
/// calls are timed; each application's decisions are checked against
/// the oracle between its timed segments.
fn unit(
    apps: &mut [App],
    passes: usize,
    traced: bool,
    mut lat: Option<&mut Samples>,
    countdown: &mut u32,
    rep: &mut Report,
) -> UnitOut {
    let mut wall = Duration::ZERO;
    let mut busy = Duration::ZERO;
    for _ in 0..passes {
        for app in apps.iter_mut() {
            let App {
                stream,
                process,
                expected,
                out,
                ..
            } = app;
            let t0 = Instant::now();
            if traced {
                for (slot, req) in out.iter_mut().zip(stream.iter()) {
                    let t = Instant::now();
                    *slot = process.syscall(req);
                    busy += t.elapsed();
                }
            } else if let Some(lat) = lat.as_deref_mut() {
                for (slot, req) in out.iter_mut().zip(stream.iter()) {
                    if *countdown == 0 {
                        *countdown = SAMPLE_EVERY - 1;
                        let t = Instant::now();
                        *slot = process.syscall(req);
                        lat.push(t.elapsed().as_nanos() as u64);
                    } else {
                        *countdown -= 1;
                        *slot = process.syscall(req);
                    }
                }
            } else {
                for (slot, req) in out.iter_mut().zip(stream.iter()) {
                    *slot = process.syscall(req);
                }
            }
            wall += t0.elapsed();
            rep.attempted += stream.len() as u64;
            for ((got, want), req) in out.iter().zip(expected.iter()).zip(stream.iter()) {
                if got.action != *want {
                    rep.fail(format!("{req}: checker {:?}, VM {want:?}", got.action));
                }
            }
        }
    }
    UnitOut { wall, busy }
}

fn merged_metrics(apps: &[App]) -> MetricsRegistry {
    let parts: Vec<MetricsRegistry> = apps.iter().map(|a| a.process.checker().metrics()).collect();
    MetricsRegistry::merged(&parts)
}

/// A stage's summed duration and the (process, check) pairs it ran in.
type StageTotal = (u64, HashSet<(u32, u64)>);

/// Mean self time per sampled check of each reported stage, plus each
/// stage's share of all sampled stage time. Stages never nest, so a
/// span's duration is its self time; the two VAT ways add up to one
/// probe.
fn stage_times(spans: &[Span], rep: &mut Report) {
    let group = |s: Stage| match s {
        Stage::SptLookup => Some("core.stage.spt_lookup_ns"),
        Stage::CrcHash => Some("core.stage.crc_hash_ns"),
        Stage::VatProbeWay1 | Stage::VatProbeWay2 => Some("core.stage.vat_probe_ns"),
        Stage::FilterExec => Some("core.stage.filter_exec_ns"),
        Stage::VatInsert => Some("core.stage.vat_insert_ns"),
        _ => None,
    };
    let mut acc: BTreeMap<&str, StageTotal> = BTreeMap::new();
    for span in spans {
        if let Some(name) = group(span.stage) {
            let e = acc.entry(name).or_default();
            e.0 += span.dur_ns;
            e.1.insert((span.shard, span.seq));
        }
    }
    let total: u64 = acc.values().map(|(d, _)| d).sum();
    let mut line = String::from("stage self time shares (sampled checks):");
    for (name, (dur, checks)) in &acc {
        rep.set(name, ratio(*dur as f64, checks.len() as f64));
        line.push_str(&format!(
            " {name} {:.1}%",
            100.0 * ratio(*dur as f64, total as f64)
        ));
    }
    rep.line(line);
}

/// Runs `app-warm` or `app-miss`.
pub fn run(cfg: &Config) -> Report {
    let p = Params::of(cfg);
    let mut rep = Report::new(cfg.workload.name(), cfg.traced);

    let mut totals = Vec::new();
    let mut parts: [Vec<f64>; 4] = Default::default();
    let mut built = None;
    for _ in 0..setup_repeats(cfg) {
        // Free the last set-up first, so the peak holds one.
        drop(built.take());
        let t = Instant::now();
        built = Some(setup(cfg, &p, &mut parts));
        totals.push(t.elapsed().as_secs_f64());
    }
    let mut apps = built.expect("at least one set-up");
    let [trace_gen, profile_gen, spawn, warm] = parts;
    report_setup(
        &mut rep,
        &totals,
        &[
            ("workloads.trace_gen_s", trace_gen),
            ("workloads.profile_gen_s", profile_gen),
            ("core.setup_spawn_s", spawn),
            ("setup.warm_s", warm),
        ],
    );

    // The expected verdict of every request, from the VM.
    let mut vm = Oracle::default();
    for app in &mut apps {
        let version = vm.install(oracle::compile(&app.profile));
        app.expected = app
            .stream
            .iter()
            .map(|req| {
                vm.verdict(version, req).unwrap_or_else(|| {
                    rep.fail(format!("{req}: VM fault"));
                    SeccompAction::KillProcess
                })
            })
            .collect();
    }
    let per_unit: usize = p.passes * apps.iter().map(|a| a.stream.len()).sum::<usize>();
    let denials: usize = apps
        .iter()
        .map(|a| a.expected.iter().filter(|x| !x.permits()).count())
        .sum();
    rep.line(format!(
        "inputs: {} apps ({}), {} checks per unit, {:.2}% denied, {} distinct requests run on the VM",
        apps.len(),
        apps.iter().map(|a| a.name).collect::<Vec<_>>().join(","),
        per_unit,
        100.0 * ratio((denials * p.passes) as f64, per_unit as f64),
        vm.distinct()
    ));

    let mut seq = Sequencer::new(cfg);
    let mut countdown = 0;
    let mut busy = Vec::new();
    let mut traced_walls = Vec::new();
    while let Some((idx, traced)) = seq.next_unit() {
        let before = (idx == 1).then(|| merged_metrics(&apps));
        if traced {
            let capacity =
                p.passes * p.trace_ops * 6 / SpanTracer::DEFAULT_SAMPLE_INTERVAL as usize + 64;
            for app in &mut apps {
                app.process
                    .checker_mut()
                    .enable_span_trace(capacity, SpanTracer::DEFAULT_SAMPLE_INTERVAL);
            }
        }
        let mut lat = Samples::default();
        let sample = (idx > 0 && !traced).then_some(&mut lat);
        let out = unit(
            &mut apps,
            p.passes,
            traced,
            sample,
            &mut countdown,
            &mut rep,
        );
        seq.record(idx, traced, out.wall.as_secs_f64(), per_unit as u64, &lat);
        if traced {
            let mut spans = Vec::new();
            for (i, app) in apps.iter_mut().enumerate() {
                if let Some(tracer) = app.process.checker_mut().take_span_tracer() {
                    spans.extend(tracer.into_spans().into_iter().map(|s| Span {
                        shard: i as u32,
                        ..s
                    }));
                }
            }
            if idx == 1 {
                stage_times(&spans, &mut rep);
            }
            busy.push(out.busy.as_secs_f64());
            traced_walls.push(out.wall.as_secs_f64());
        }
        if let Some(before) = before {
            let delta = merged_metrics(&apps).delta_since(&before);
            report::counters(&mut rep, &delta, 1);
            rep.identity(
                "checks == decisions (unit 1)",
                delta.checker.total(),
                per_unit as u64,
            );
        }
    }
    seq.finish(&mut rep);

    if cfg.traced {
        let b = median(&busy);
        let w = median(&traced_walls);
        rep.set("core.check_busy_s", b);
        rep.set("trace.unaccounted_share", ratio(w - b, w));
        rep.line(format!(
            "traced unit: syscall calls {:.1}% of wall, unaccounted {:.1}%",
            100.0 * ratio(b, w),
            100.0 * ratio(w - b, w)
        ));
    }
    rep.set("peak_rss_mib", inputs::peak_rss_mib());
    rep
}
