//! `fleet-steady` and `fleet-churn`: one `DracoService` in its default
//! configuration, driven by one thread.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use draco_core::{CheckResult, DracoError};
use draco_dracod::{DracoService, ServiceConfig, ServiceError, TenantId};
use draco_obs::MetricsRegistry;
use draco_profiles::{ArgPolicy, FilterLayout, ProfileSpec, RuleSource, SyscallRule};
use draco_syscalls::{SyscallRequest, SyscallTable};
use draco_workloads::catalog;

use crate::inputs::{self, GenTimes};
use crate::oracle::{self, Oracle, Version};
use crate::report::{self, Report};
use crate::stats::{ratio, Samples};
use crate::{report_setup, setup_repeats, Config, Sequencer};

/// The five tenant archetypes (the service's own churn scenario uses
/// the same catalog workloads).
const ARCHETYPES: [&str; 5] = ["pipe", "nginx", "redis", "httpd", "fifo"];

/// Churn tenants draw from these macro applications: unlike the
/// micro benchmarks among the archetypes (whose arguments are fixed),
/// their traces give a distinct profile for every seed.
const CHURN_APPS: [&str; 7] = [
    "httpd",
    "nginx",
    "elasticsearch",
    "mysql",
    "cassandra",
    "redis",
    "grep",
];

/// One request in this many is perturbed into a denial. At 256
/// requests per tenant per round that is 2,048 denials a round across
/// 128 tenants, within the default audit ring, so nothing is dropped.
const DENY_EVERY: usize = 16;

/// Resolution of `submit_all` to decision latencies, which run to
/// milliseconds: 1 us is under 0.1% of any percentile reported.
const LATENCY_RESOLUTION_NS: u64 = 1_000;

/// Traced churn units whose policy code is timed again afterwards.
const POLICY_TIMED_UNITS: usize = 4;

/// Syscalls no generated profile allows; a refused reload candidate
/// allows one of them on top of the tenant's profile.
const RELAXATIONS: [&str; 8] = [
    "ptrace",
    "reboot",
    "kexec_load",
    "init_module",
    "delete_module",
    "swapon",
    "pivot_root",
    "acct",
];

/// Service calls the benchmark times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Register,
    Fork,
    Exec,
    ReloadAdmit,
    ReloadRefuse,
    Retire,
    Submit,
    Drain,
    Audit,
    Seal,
}

const PHASES: usize = 10;

/// Busy time and per-call samples of each service call.
#[derive(Debug, Default)]
struct Phases {
    busy: [Duration; PHASES],
    ns: [Samples; PHASES],
}

impl Phases {
    fn add(&mut self, phase: Phase, d: Duration) {
        self.busy[phase as usize] += d;
        self.ns[phase as usize].push(d.as_nanos() as u64);
    }

    fn secs(&self, phase: Phase) -> f64 {
        self.busy[phase as usize].as_secs_f64()
    }

    fn us(&self, phase: Phase, q: f64) -> f64 {
        self.ns[phase as usize].quantile(q) as f64 / 1e3
    }

    fn count(&self, phase: Phase) -> u64 {
        self.ns[phase as usize].count()
    }
}

/// Times `f` into `phases` when tracing, otherwise just runs it.
fn timed<T>(phases: Option<&mut Phases>, phase: Phase, f: impl FnOnce() -> T) -> T {
    match phases {
        None => f(),
        Some(p) => {
            let t = Instant::now();
            let out = f();
            p.add(phase, t.elapsed());
            out
        }
    }
}

/// The per-round data-plane loop shared by both fleet workloads:
/// submit to every fed tenant, drain, consume the audit ring, scrape
/// the metrics. Buffers are reused across rounds.
struct Traffic {
    epoch: Instant,
    batch: usize,
    submitted: Vec<(TenantId, u64)>,
    batches: Vec<(u64, u64)>,
    /// Every decision of the last round: tenant, request, decision.
    decided: Vec<(TenantId, SyscallRequest, CheckResult)>,
    audit_consumed: u64,
    errors: Vec<String>,
}

impl Traffic {
    fn new() -> Self {
        Traffic {
            epoch: Instant::now(),
            batch: ServiceConfig::default().batch.max(1),
            submitted: Vec::new(),
            batches: Vec::new(),
            decided: Vec::new(),
            audit_consumed: 0,
            errors: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// One round. `feeds` must be in ascending tenant order, the order
    /// the service drains in. Decision latency runs from a tenant's
    /// `submit_all` to its batch's first decision out of `drain_with`:
    /// the clock is read once per submit and once per batch, and each
    /// batch's reading stands for every request in it.
    fn round(
        &mut self,
        svc: &mut DracoService,
        feeds: &[(TenantId, &[SyscallRequest])],
        mut phases: Option<&mut Phases>,
        lat: Option<&mut Samples>,
    ) -> Duration {
        self.submitted.clear();
        self.batches.clear();
        self.decided.clear();
        let t0 = Instant::now();
        for &(id, reqs) in feeds {
            let at = self.now_ns();
            self.submitted.push((id, at));
            if let Err(e) = timed(phases.as_deref_mut(), Phase::Submit, || {
                svc.submit_all(id, reqs)
            }) {
                self.errors.push(format!("submit_all {id}: {e}"));
            }
        }
        let (epoch, batch) = (self.epoch, self.batch);
        let (submitted, batches, decided) = (&self.submitted, &mut self.batches, &mut self.decided);
        let mut k = 0;
        let mut current = None;
        let mut in_tenant = 0;
        timed(phases.as_deref_mut(), Phase::Drain, || {
            svc.drain_with(|id, req, res| {
                if current != Some(id) {
                    current = Some(id);
                    in_tenant = 0;
                    while k < submitted.len() && submitted[k].0 != id {
                        k += 1;
                    }
                }
                if in_tenant % batch == 0 {
                    let at = epoch.elapsed().as_nanos() as u64;
                    let since = submitted.get(k).map_or(0, |&(_, s)| at.saturating_sub(s));
                    batches.push((since, 0));
                }
                in_tenant += 1;
                if let Some(last) = batches.last_mut() {
                    last.1 += 1;
                }
                decided.push((id, *req, res));
            });
        });
        let ring = svc.audit_ring();
        self.audit_consumed += timed(phases.as_deref_mut(), Phase::Audit, || {
            ring.drain_with(|_| {})
        }) as u64;
        let sealed: MetricsRegistry = timed(phases, Phase::Seal, || svc.metrics());
        black_box(sealed);
        let wall = t0.elapsed();
        if let Some(lat) = lat {
            for &(ns, n) in &self.batches {
                lat.push_weighted(ns, n);
            }
        }
        wall
    }

    /// Checks the last round against the oracle and the submit count.
    fn verify(
        &mut self,
        vm: &mut Oracle,
        version_of: &HashMap<TenantId, Version>,
        submitted: usize,
        rep: &mut Report,
    ) {
        for e in self.errors.drain(..) {
            rep.fail(e);
        }
        rep.identity(
            "submitted == decided",
            submitted as u64,
            self.decided.len() as u64,
        );
        rep.attempted += submitted as u64;
        for (id, req, res) in &self.decided {
            let Some(&v) = version_of.get(id) else {
                rep.fail(format!("decision for unfed {id}"));
                continue;
            };
            match vm.verdict(v, req) {
                Some(want) if want == res.action => {}
                Some(want) => {
                    rep.fail(format!("{id} {req}: service {:?}, VM {want:?}", res.action))
                }
                None => rep.fail(format!("{id} {req}: VM fault")),
            }
        }
    }
}

/// A stream extended by its own first `window` requests, so every
/// round's slice `[cursor, cursor + window)` is contiguous.
fn wrapped(stream: &[SyscallRequest], window: usize) -> Vec<SyscallRequest> {
    let mut out = stream.to_vec();
    out.extend(stream.iter().cycle().take(window));
    out
}

/// Service-level numbers every fleet unit reports from its registry.
#[derive(Default)]
struct Snapshot {
    metrics: MetricsRegistry,
    published: u64,
    dropped: u64,
    intervals: u64,
    pool_ns: u64,
    permitted: u64,
    refused: u64,
}

impl Snapshot {
    fn of(svc: &DracoService) -> Self {
        let c = svc.counters();
        Snapshot {
            metrics: svc.metrics(),
            published: svc.audit_ring().events_published(),
            dropped: svc.audit_ring().events_dropped(),
            intervals: svc.window().dump().intervals_pushed,
            pool_ns: svc.latency_pool().sum,
            permitted: c.reloads_permitted,
            refused: c.reloads_refused,
        }
    }

    /// Writes the per-layer counts of the interval `earlier..self`.
    fn report(&self, earlier: &Snapshot, rep: &mut Report) {
        let d = self.metrics.delta_since(&earlier.metrics);
        report::counters(rep, &d, ServiceConfig::default().batch);
        rep.set(
            "obs.audit_published",
            (self.published - earlier.published) as f64,
        );
        rep.set("obs.audit_dropped", (self.dropped - earlier.dropped) as f64);
        rep.set(
            "obs.window_intervals",
            (self.intervals - earlier.intervals) as f64,
        );
        rep.set(
            "dracod.reloads_permitted",
            (self.permitted - earlier.permitted) as f64,
        );
        rep.set(
            "dracod.reloads_refused",
            (self.refused - earlier.refused) as f64,
        );
    }
}

/// Service-wide conservation identities, cumulative since start.
fn identities(svc: &DracoService, rep: &mut Report) {
    let stats = svc.stats();
    let ring = svc.audit_ring();
    let c = svc.counters();
    rep.identity(
        "audit published + dropped == denials",
        ring.events_published() + ring.events_dropped(),
        stats.denials,
    );
    rep.identity(
        "checker decisions == service decisions",
        stats.total(),
        c.checks,
    );
    rep.identity(
        "checker reloads == service reloads",
        stats.reloads_permitted + stats.reloads_refused,
        c.reloads_permitted + c.reloads_refused,
    );
}

/// Writes busy times and shares of the traced units, `n` of them.
fn report_phases(rep: &mut Report, phases: &Phases, traced_wall: Duration, pool_ns: u64, n: usize) {
    let per = |s: f64| s / n.max(1) as f64;
    let wall = traced_wall.as_secs_f64();
    let check_busy = per(pool_ns as f64 / 1e9);
    let drain = per(phases.secs(Phase::Drain));
    rep.set("core.check_busy_s", check_busy);
    rep.set("dracod.submit_busy_s", per(phases.secs(Phase::Submit)));
    rep.set("dracod.drain_busy_s", drain);
    rep.set("dracod.drain_overhead_s", drain - check_busy);
    let mut accounted = 0.0;
    let mut line = String::from("share of traced wall:");
    for (name, ps) in [
        ("dracod.share.register", &[Phase::Register][..]),
        ("dracod.share.fork", &[Phase::Fork]),
        ("dracod.share.exec", &[Phase::Exec]),
        (
            "dracod.share.reload",
            &[Phase::ReloadAdmit, Phase::ReloadRefuse],
        ),
        ("dracod.share.retire", &[Phase::Retire]),
        ("dracod.share.submit", &[Phase::Submit]),
        ("dracod.share.drain", &[Phase::Drain]),
        ("dracod.share.audit", &[Phase::Audit]),
        ("dracod.share.seal", &[Phase::Seal]),
    ] {
        let share = ratio(ps.iter().map(|&p| phases.secs(p)).sum(), wall);
        accounted += share;
        rep.set(name, share);
        line.push_str(&format!(
            " {} {:.1}%",
            &name["dracod.share.".len()..],
            100.0 * share
        ));
    }
    rep.set("trace.unaccounted_share", 1.0 - accounted);
    line.push_str(&format!(", unaccounted {:.1}%", 100.0 * (1.0 - accounted)));
    rep.line(line);
    rep.set("obs.seal_us_p50", phases.us(Phase::Seal, 0.5));
}

/// Writes the control-plane call percentiles with their sample counts.
fn report_control(rep: &mut Report, phases: &Phases) {
    let mut line = String::from("control calls (us):");
    for (phase, label, qs) in [
        (
            Phase::Register,
            "register",
            &[
                (0.5, "dracod.register_us_p50"),
                (0.9, "dracod.register_us_p90"),
            ][..],
        ),
        (
            Phase::Fork,
            "fork",
            &[(0.5, "dracod.fork_us_p50"), (0.9, "dracod.fork_us_p90")],
        ),
        (Phase::Exec, "exec", &[(0.5, "dracod.exec_us_p50")]),
        (Phase::Retire, "retire", &[(0.5, "dracod.retire_us_p50")]),
        (
            Phase::ReloadAdmit,
            "reload_admit",
            &[
                (0.5, "dracod.reload_admit_us_p50"),
                (0.9, "dracod.reload_admit_us_p90"),
            ],
        ),
        (
            Phase::ReloadRefuse,
            "reload_refuse",
            &[
                (0.5, "dracod.reload_refuse_us_p50"),
                (0.9, "dracod.reload_refuse_us_p90"),
            ],
        ),
    ] {
        let n = phases.count(phase);
        line.push_str(&format!(" {label} [n={n}]"));
        for &(q, name) in qs {
            let v = phases.us(phase, q);
            rep.set(name, v);
            line.push_str(&format!(
                " p{:.0} {v:.1} ({} beyond)",
                q * 100.0,
                phases.ns[phase as usize].beyond(q)
            ));
        }
    }
    rep.line(line);
}

// ---------------------------------------------------------------- steady

/// One archetype's traffic: its profile and its perturbed stream.
struct Archetype {
    profile: ProfileSpec,
    stream: Vec<SyscallRequest>,
}

struct Steady {
    archetypes: Vec<Archetype>,
    /// (tenant, archetype, cursor), ascending by tenant.
    tenants: Vec<(TenantId, usize, usize)>,
    per_round: usize,
    len: usize,
}

impl Steady {
    fn feeds(&mut self) -> Vec<(TenantId, &[SyscallRequest])> {
        let (per_round, len) = (self.per_round, self.len);
        let mut feeds = Vec::with_capacity(self.tenants.len());
        for (id, a, cursor) in &mut self.tenants {
            feeds.push((
                *id,
                &self.archetypes[*a].stream[*cursor..*cursor + per_round],
            ));
            *cursor = (*cursor + per_round) % len;
        }
        feeds
    }
}

/// Runs `fleet-steady`: ~128 tenants sharing the five archetype
/// profiles, a fixed number of requests each per round, no lifecycle
/// calls while timed.
pub fn run_steady(cfg: &Config) -> Report {
    let (tenants, per_round, rounds, trace_ops) = if cfg.tiny {
        (10, 16, 2, 256)
    } else {
        (128, 256, 16, 2048)
    };
    let mut rep = Report::new(cfg.workload.name(), cfg.traced);
    let mut traffic = Traffic::new();

    let mut totals = Vec::new();
    let mut parts: [Vec<f64>; 4] = Default::default();
    let mut built = None;
    for _ in 0..setup_repeats(cfg) {
        // Free the last set-up first, so the peak holds one.
        drop(built.take());
        traffic.audit_consumed = 0;
        let t = Instant::now();
        let mut gen = GenTimes::default();
        let archetypes: Vec<Archetype> = ARCHETYPES
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let spec = catalog::by_name(name).expect("archetype in catalog");
                let input = inputs::app(
                    &spec,
                    inputs::mix(cfg.seed, i as u64, 1),
                    trace_ops,
                    &mut gen,
                );
                Archetype {
                    stream: wrapped(
                        &inputs::with_denials(&input.requests, DENY_EVERY),
                        per_round,
                    ),
                    profile: input.profile,
                }
            })
            .collect();
        let t_reg = Instant::now();
        let mut svc = DracoService::new(ServiceConfig::default());
        let ids: Vec<(TenantId, usize, usize)> = (0..tenants)
            .map(|i| {
                let a = i % archetypes.len();
                let id = svc
                    .register(&archetypes[a].profile)
                    .expect("generated profiles register");
                (id, a, (i * 97) % trace_ops)
            })
            .collect();
        let register = t_reg.elapsed();
        let mut steady = Steady {
            archetypes,
            tenants: ids,
            per_round,
            len: trace_ops,
        };
        // Warm: one round fills every tenant's SPT and VAT.
        let t_warm = Instant::now();
        let feeds = steady.feeds();
        traffic.round(&mut svc, &feeds, None, None);
        let warm = t_warm.elapsed();
        totals.push(t.elapsed().as_secs_f64());
        for (xs, d) in parts
            .iter_mut()
            .zip([gen.trace, gen.profile, register, warm])
        {
            xs.push(d.as_secs_f64());
        }
        built = Some((svc, steady));
    }
    let (mut svc, mut steady) = built.expect("at least one set-up");
    let [trace_gen, profile_gen, register, warm] = parts;
    report_setup(
        &mut rep,
        &totals,
        &[
            ("workloads.trace_gen_s", trace_gen),
            ("workloads.profile_gen_s", profile_gen),
            ("dracod.setup_register_s", register),
            ("setup.warm_s", warm),
        ],
    );

    let mut vm = Oracle::default();
    let versions: Vec<Version> = steady
        .archetypes
        .iter()
        .map(|a| vm.install(oracle::compile(&a.profile)))
        .collect();
    let version_of: HashMap<TenantId, Version> = steady
        .tenants
        .iter()
        .map(|&(id, a, _)| (id, versions[a]))
        .collect();
    let per_fed = tenants * per_round;
    traffic.verify(&mut vm, &version_of, per_fed, &mut rep);
    rep.line(format!(
        "inputs: {tenants} tenants over {} archetypes ({}), {per_round} requests each per round, {rounds} rounds per unit, 1 in {DENY_EVERY} perturbed",
        ARCHETYPES.len(),
        ARCHETYPES.join(",")
    ));

    let mut seq = Sequencer::new(cfg);
    let mut phases = Phases::default();
    let mut traced_wall = Duration::ZERO;
    let mut traced_units = 0;
    let mut pool_ns = 0;
    while let Some((idx, traced)) = seq.next_unit() {
        let before = Snapshot::of(&svc);
        let mut wall = Duration::ZERO;
        let mut lat = Samples::with_resolution(LATENCY_RESOLUTION_NS);
        for _ in 0..rounds {
            let feeds = steady.feeds();
            let sample = (idx > 0 && !traced).then_some(&mut lat);
            wall += traffic.round(&mut svc, &feeds, traced.then_some(&mut phases), sample);
            traffic.verify(&mut vm, &version_of, per_fed, &mut rep);
        }
        seq.record(
            idx,
            traced,
            wall.as_secs_f64(),
            (rounds * per_fed) as u64,
            &lat,
        );
        let after = Snapshot::of(&svc);
        if traced {
            traced_wall += wall;
            traced_units += 1;
            pool_ns += after.pool_ns - before.pool_ns;
        }
        if idx == 1 {
            after.report(&before, &mut rep);
        }
        identities(&svc, &mut rep);
    }
    rep.identity(
        "audit consumed == published",
        traffic.audit_consumed,
        svc.audit_ring().events_published(),
    );
    seq.finish(&mut rep);
    if cfg.traced {
        report_phases(&mut rep, &phases, traced_wall, pool_ns, traced_units);
    }
    rep.set("peak_rss_mib", inputs::peak_rss_mib());
    rep
}

// ----------------------------------------------------------------- churn

/// The shape of one churn unit.
#[derive(Clone, Copy, Debug)]
struct ChurnParams {
    initial: usize,
    arrivals: usize,
    rounds: usize,
    fork_every: usize,
    fork_storm: usize,
    exec_every: usize,
    min_live: usize,
    per_round: usize,
    trace_ops: usize,
}

impl ChurnParams {
    fn of(cfg: &Config) -> Self {
        if cfg.tiny {
            ChurnParams {
                initial: 6,
                arrivals: 1,
                rounds: 4,
                fork_every: 2,
                fork_storm: 2,
                exec_every: 2,
                min_live: 4,
                per_round: 8,
                trace_ops: 96,
            }
        } else {
            // 48 + 16 x 5 = 128 registrations, 16 fork children, 8
            // execs, 16 reload pairs and ~14 retirements per unit.
            ChurnParams {
                initial: 48,
                arrivals: 5,
                rounds: 16,
                fork_every: 4,
                fork_storm: 4,
                exec_every: 2,
                min_live: 16,
                per_round: 24,
                trace_ops: 384,
            }
        }
    }
}

/// One scheduled call. Slots number tenants in creation order, which
/// is the order the service allocates their ids in.
#[derive(Debug)]
enum Op {
    Register {
        slot: usize,
        profile: usize,
    },
    Fork {
        parent: usize,
        child: usize,
    },
    Exec {
        slot: usize,
        profile: usize,
    },
    Reload {
        slot: usize,
        candidate: usize,
        admit: bool,
    },
    Retire {
        slot: usize,
    },
    /// Every live tenant submits `per_round` requests: (slot, profile
    /// whose stream it draws from, cursor).
    Traffic(Vec<(usize, usize, usize)>),
}

/// Everything one churn unit needs, generated from its seed before the
/// unit is timed.
struct Plan {
    /// Profiles installed by register (first) and exec (after).
    profiles: Vec<ProfileSpec>,
    /// Per profile: its trace's requests, perturbed and wrapped.
    streams: Vec<Vec<SyscallRequest>>,
    /// Reload candidates, and the profile each tenant had when offered
    /// one (the inputs `diff_profiles` sees).
    candidates: Vec<ProfileSpec>,
    bases: Vec<ProfileSpec>,
    ops: Vec<Op>,
    slots: usize,
}

/// Small seeded generator for schedule choices.
struct Pick(u64, u64);

impl Pick {
    fn below(&mut self, n: usize) -> usize {
        self.1 += 1;
        (inputs::mix(self.0, self.1, 7) % n as u64) as usize
    }

    fn from(&mut self, xs: &[usize]) -> usize {
        xs[self.below(xs.len())]
    }
}

/// Generates profile `i` of a unit: application `i % 7`, its own
/// trace, distinct by content from every earlier profile of the unit.
fn distinct_profile(
    seed: u64,
    i: usize,
    p: &ChurnParams,
    earlier: &[ProfileSpec],
    gen: &mut GenTimes,
) -> (ProfileSpec, Vec<SyscallRequest>) {
    let spec = catalog::by_name(CHURN_APPS[i % CHURN_APPS.len()]).expect("application in catalog");
    for attempt in 0..64 {
        let input = inputs::app(
            &spec,
            inputs::mix(seed, i as u64, attempt),
            p.trace_ops,
            gen,
        );
        if earlier.iter().all(|e| *e != input.profile) {
            let stream = wrapped(
                &inputs::with_denials(&input.requests, DENY_EVERY),
                p.per_round,
            );
            return (input.profile, stream);
        }
    }
    panic!("{}: 64 seeds gave no new profile", spec.name)
}

/// Builds a [`Plan`], tracking what the service will hold per slot.
struct Planner<'a> {
    seed: u64,
    p: &'a ChurnParams,
    pick: Pick,
    gen: &'a mut GenTimes,
    plan: Plan,
    live: Vec<usize>,
    /// Per slot: the profile its stream comes from, its effective
    /// profile, whether it is a fork child, whether it was offered a
    /// reload, and its stream cursor.
    source: Vec<usize>,
    effective: Vec<ProfileSpec>,
    child: Vec<bool>,
    offered: Vec<bool>,
    cursor: Vec<usize>,
}

impl Planner<'_> {
    fn new_profile(&mut self) -> usize {
        let i = self.plan.profiles.len();
        let (profile, stream) =
            distinct_profile(self.seed, i, self.p, &self.plan.profiles, self.gen);
        self.plan.profiles.push(profile);
        self.plan.streams.push(stream);
        i
    }

    fn new_slot(&mut self, source: usize, effective: ProfileSpec, child: bool) -> usize {
        let slot = self.source.len();
        self.live.push(slot);
        self.source.push(source);
        self.effective.push(effective);
        self.child.push(child);
        self.offered.push(false);
        self.cursor.push(self.pick.below(self.p.trace_ops));
        slot
    }

    fn register(&mut self) {
        let profile = self.new_profile();
        let slot = self.new_slot(profile, self.plan.profiles[profile].clone(), false);
        self.plan.ops.push(Op::Register { slot, profile });
    }

    fn retire(&mut self) {
        let slot = self.live.remove(self.pick.below(self.live.len()));
        self.plan.ops.push(Op::Retire { slot });
    }

    fn fork_storm(&mut self) {
        let parent = self.pick.from(&self.live);
        for _ in 0..self.p.fork_storm {
            let child = self.new_slot(self.source[parent], self.effective[parent].clone(), true);
            self.plan.ops.push(Op::Fork { parent, child });
        }
    }

    fn exec(&mut self) {
        let slot = self.pick.from(&self.live);
        let profile = self.new_profile();
        self.plan.ops.push(Op::Exec { slot, profile });
        self.source[slot] = profile;
        self.effective[slot] = self.plan.profiles[profile].clone();
        self.child[slot] = false;
        self.offered[slot] = false;
    }

    /// A reload pair on two tenants whose profiles no earlier pair
    /// touched: an equivalent candidate the gate admits, then a
    /// relaxation it refuses.
    fn reload_pair(&mut self) {
        let eligible: Vec<usize> = self
            .live
            .iter()
            .copied()
            .filter(|&s| !self.child[s] && !self.offered[s])
            .collect();
        if eligible.len() < 2 {
            return;
        }
        let a = self.pick.from(&eligible);
        let others: Vec<usize> = eligible.into_iter().filter(|&s| s != a).collect();
        let b = self.pick.from(&others);

        let equivalent = self.effective[a].clone();
        let admitted = self.effective[a].intersect(&equivalent);
        self.offer(a, equivalent, true);
        self.effective[a] = admitted;

        let mut relaxed = self.effective[b].clone();
        let table = SyscallTable::shared();
        let denied: Vec<_> = RELAXATIONS
            .iter()
            .filter_map(|n| table.by_name(n).map(|d| d.id()))
            .filter(|&id| relaxed.rule(id).is_none())
            .collect();
        let extra = denied[self.pick.below(denied.len())];
        relaxed.allow(
            extra,
            SyscallRule {
                args: ArgPolicy::AnyArgs,
                source: RuleSource::Application,
            },
        );
        self.offer(b, relaxed, false);
    }

    fn offer(&mut self, slot: usize, candidate: ProfileSpec, admit: bool) {
        self.plan.bases.push(self.effective[slot].clone());
        self.plan.candidates.push(candidate);
        self.plan.ops.push(Op::Reload {
            slot,
            candidate: self.plan.candidates.len() - 1,
            admit,
        });
        self.offered[slot] = true;
    }

    fn traffic(&mut self) {
        let mut fed: Vec<(usize, usize, usize)> = Vec::with_capacity(self.live.len());
        for &s in &self.live {
            let start = self.cursor[s];
            self.cursor[s] = (start + self.p.per_round) % self.p.trace_ops;
            fed.push((s, self.source[s], start));
        }
        fed.sort_unstable();
        self.plan.ops.push(Op::Traffic(fed));
    }
}

fn plan(seed: u64, p: &ChurnParams, gen: &mut GenTimes) -> Plan {
    let mut planner = Planner {
        seed,
        p,
        pick: Pick(seed, 0),
        gen,
        plan: Plan {
            profiles: Vec::new(),
            streams: Vec::new(),
            candidates: Vec::new(),
            bases: Vec::new(),
            ops: Vec::new(),
            slots: 0,
        },
        live: Vec::new(),
        source: Vec::new(),
        effective: Vec::new(),
        child: Vec::new(),
        offered: Vec::new(),
        cursor: Vec::new(),
    };
    for _ in 0..p.initial {
        planner.register();
    }
    for round in 0..p.rounds {
        for _ in 0..p.arrivals {
            planner.register();
        }
        if planner.live.len() > p.min_live {
            planner.retire();
        }
        if round % p.fork_every == p.fork_every - 1 {
            planner.fork_storm();
        }
        if round % p.exec_every == p.exec_every - 1 {
            planner.exec();
        }
        planner.reload_pair();
        planner.traffic();
    }
    planner.plan.slots = planner.source.len();
    planner.plan
}

/// Oracle versions of a plan: per traffic op, each fed slot's version.
fn plan_versions(plan: &Plan, vm: &mut Oracle) -> Vec<Vec<Version>> {
    let installed: Vec<Version> = plan
        .profiles
        .iter()
        .map(|p| vm.install(oracle::compile(p)))
        .collect();
    let mut version = vec![0; plan.slots];
    let mut out = Vec::new();
    for op in &plan.ops {
        match *op {
            Op::Register { slot, profile } | Op::Exec { slot, profile } => {
                version[slot] = installed[profile]
            }
            Op::Fork { parent, child } => version[child] = version[parent],
            Op::Reload {
                slot,
                candidate,
                admit: true,
            } => {
                version[slot] =
                    vm.attach(version[slot], oracle::compile(&plan.candidates[candidate]));
            }
            Op::Reload { admit: false, .. } | Op::Retire { .. } => {}
            Op::Traffic(ref fed) => out.push(fed.iter().map(|&(s, _, _)| version[s]).collect()),
        }
    }
    out
}

/// Runs one churn unit on a fresh service. Returns the timed wall and
/// the service, for the caller's per-layer numbers.
#[allow(clippy::too_many_arguments)]
fn churn_unit(
    plan: &Plan,
    p: &ChurnParams,
    versions: &[Vec<Version>],
    vm: &mut Oracle,
    traffic: &mut Traffic,
    traced: bool,
    control_phases: &mut Phases,
    phases: &mut Phases,
    mut lat: Option<&mut Samples>,
    rep: &mut Report,
) -> (Duration, DracoService, u64) {
    let mut svc = DracoService::new(ServiceConfig::default());
    let mut ids: Vec<Option<TenantId>> = vec![None; plan.slots];
    let mut wall = Duration::ZERO;
    let mut traffic_ops = versions.iter();
    let mut decisions = 0;
    let (mut attempts, mut admitted) = (0, 0);
    for op in &plan.ops {
        let t0 = Instant::now();
        match *op {
            Op::Register { slot, profile } => {
                match timed(Some(&mut *control_phases), Phase::Register, || {
                    svc.register(&plan.profiles[profile])
                }) {
                    Ok(id) => ids[slot] = Some(id),
                    Err(e) => rep.fail(format!("register: {e}")),
                }
            }
            Op::Fork { parent, child } => {
                let Some(parent) = ids[parent] else { continue };
                match timed(Some(&mut *control_phases), Phase::Fork, || svc.fork(parent)) {
                    Ok(id) => ids[child] = Some(id),
                    Err(e) => rep.fail(format!("fork {parent}: {e}")),
                }
            }
            Op::Exec { slot, profile } => {
                let Some(id) = ids[slot] else { continue };
                if let Err(e) = timed(Some(&mut *control_phases), Phase::Exec, || {
                    svc.exec(id, &plan.profiles[profile])
                }) {
                    rep.fail(format!("exec {id}: {e}"));
                }
            }
            Op::Reload {
                slot,
                candidate,
                admit,
            } => {
                let Some(id) = ids[slot] else { continue };
                let t = Instant::now();
                let result = svc.reload(id, &plan.candidates[candidate]);
                control_phases.add(
                    if result.is_ok() {
                        Phase::ReloadAdmit
                    } else {
                        Phase::ReloadRefuse
                    },
                    t.elapsed(),
                );
                attempts += 1;
                admitted += u64::from(result.is_ok());
                match (result, admit) {
                    (Ok(_), true)
                    | (Err(ServiceError::Draco(DracoError::ReloadRejected { .. })), false) => {}
                    (Ok(_), false) => rep.fail(format!("reload {id}: gate admitted a relaxation")),
                    (Err(e), _) => rep.fail(format!("reload {id} (admit expected: {admit}): {e}")),
                }
            }
            Op::Retire { slot } => {
                let Some(id) = ids[slot].take() else { continue };
                if let Err(e) = timed(Some(&mut *control_phases), Phase::Retire, || svc.retire(id))
                {
                    rep.fail(format!("retire {id}: {e}"));
                }
            }
            Op::Traffic(ref fed) => {
                let mut feeds: Vec<(TenantId, &[SyscallRequest])> = Vec::with_capacity(fed.len());
                let mut version_of = HashMap::with_capacity(fed.len());
                let fed_versions = traffic_ops.next().expect("one version list per traffic op");
                for (&(slot, profile, start), &v) in fed.iter().zip(fed_versions) {
                    if let Some(id) = ids[slot] {
                        feeds.push((id, &plan.streams[profile][start..start + p.per_round]));
                        version_of.insert(id, v);
                    }
                }
                let submitted = feeds.len() * p.per_round;
                wall += traffic.round(
                    &mut svc,
                    &feeds,
                    traced.then_some(&mut *phases),
                    lat.as_deref_mut(),
                );
                traffic.verify(vm, &version_of, submitted, rep);
                decisions += submitted as u64;
                continue;
            }
        }
        rep.attempted += 1;
        wall += t0.elapsed();
    }
    let c = svc.counters();
    rep.identity(
        "reloads permitted + refused == attempts",
        c.reloads_permitted + c.reloads_refused,
        attempts,
    );
    rep.identity(
        "reloads permitted == admitted",
        c.reloads_permitted,
        admitted,
    );
    identities(&svc, rep);
    (wall, svc, decisions)
}

/// Times the policy code register, exec and reload ran, on exactly the
/// inputs they received, outside the timed unit.
fn time_policy_code(
    plan: &Plan,
    analyze: &mut Samples,
    compile: &mut Samples,
    diff: &mut Samples,
) -> Duration {
    for op in &plan.ops {
        if let Op::Register { profile, .. } | Op::Exec { profile, .. } = *op {
            let profile = &plan.profiles[profile];
            let t = Instant::now();
            black_box(draco_profiles::analyze_profile(profile).ok());
            analyze.push(t.elapsed().as_nanos() as u64);
            // The default engine's compile: linear layout, pre-decoded.
            let t = Instant::now();
            black_box(
                draco_profiles::compile_stacked(profile, FilterLayout::Linear)
                    .ok()
                    .map(|s| s.compiled()),
            );
            compile.push(t.elapsed().as_nanos() as u64);
        }
    }
    let mut total = Duration::ZERO;
    for (base, candidate) in plan.bases.iter().zip(&plan.candidates) {
        let t = Instant::now();
        black_box(draco_profiles::diff_profiles(base, candidate).ok());
        let d = t.elapsed();
        diff.push(d.as_nanos() as u64);
        total += d;
    }
    total
}

/// Runs `fleet-churn`: a seeded schedule of lifecycle calls with light
/// traffic between them, on a fresh service per unit. Every unit draws
/// new profiles, so no two tenants, execs or reload pairs in a run
/// share content.
pub fn run_churn(cfg: &Config) -> Report {
    let p = ChurnParams::of(cfg);
    let mut rep = Report::new(cfg.workload.name(), cfg.traced);
    let mut traffic = Traffic::new();
    let mut seq = Sequencer::new(cfg);
    let mut control_phases = Phases::default();
    let mut phases = Phases::default();
    let (mut analyze, mut compile, mut diff) =
        (Samples::default(), Samples::default(), Samples::default());
    let (mut totals, mut trace_gen, mut profile_gen) = (Vec::new(), Vec::new(), Vec::new());
    let (mut traced_wall, mut traced_units, mut pool_ns) = (Duration::ZERO, 0, 0);
    let (mut diff_total, mut reload_total) = (Duration::ZERO, Duration::ZERO);
    while let Some((idx, traced)) = seq.next_unit() {
        let t = Instant::now();
        let mut gen = GenTimes::default();
        let plan = plan(inputs::mix(cfg.seed, idx as u64, 2), &p, &mut gen);
        totals.push(t.elapsed().as_secs_f64());
        trace_gen.push(gen.trace.as_secs_f64());
        profile_gen.push(gen.profile.as_secs_f64());
        if idx == 0 {
            rep.line(format!(
                "inputs: {} distinct profiles, {} reload candidates, {} scheduled ops per unit, {} requests per tenant per round, 1 in {DENY_EVERY} perturbed",
                plan.profiles.len(),
                plan.candidates.len(),
                plan.ops.len(),
                p.per_round
            ));
        }

        let mut vm = Oracle::default();
        let versions = plan_versions(&plan, &mut vm);
        let mut lat = Samples::with_resolution(LATENCY_RESOLUTION_NS);
        let sample = (idx > 0 && !traced).then_some(&mut lat);
        let mut unit_control = Phases::default();
        let (wall, svc, decisions) = churn_unit(
            &plan,
            &p,
            &versions,
            &mut vm,
            &mut traffic,
            traced,
            &mut unit_control,
            &mut phases,
            sample,
            &mut rep,
        );
        seq.record(idx, traced, wall.as_secs_f64(), decisions, &lat);
        if idx > 0 {
            for i in 0..PHASES {
                control_phases.busy[i] += unit_control.busy[i];
                control_phases.ns[i].merge(&unit_control.ns[i]);
            }
        }
        if traced {
            traced_wall += wall;
            traced_units += 1;
            pool_ns += svc.latency_pool().sum;
            for i in 0..PHASES {
                phases.busy[i] += unit_control.busy[i];
            }
            // Four units give every policy-code percentile at least ten
            // samples beyond it; more would only lengthen the run.
            if traced_units <= POLICY_TIMED_UNITS {
                diff_total += time_policy_code(&plan, &mut analyze, &mut compile, &mut diff);
                reload_total += unit_control.busy[Phase::ReloadAdmit as usize]
                    + unit_control.busy[Phase::ReloadRefuse as usize];
            }
        }
        if idx == 1 {
            // A fresh service per unit: its totals are the unit's counts.
            Snapshot::of(&svc).report(&Snapshot::default(), &mut rep);
        }
    }
    report_setup(
        &mut rep,
        &totals,
        &[
            ("workloads.trace_gen_s", trace_gen),
            ("workloads.profile_gen_s", profile_gen),
        ],
    );
    seq.finish(&mut rep);
    report_control(&mut rep, &control_phases);
    if cfg.traced {
        report_phases(&mut rep, &phases, traced_wall, pool_ns, traced_units);
        let (a50, c50) = (analyze.quantile(0.5), compile.quantile(0.5));
        let [d50, d90] = diff.quantiles(&[0.5, 0.9])[..] else {
            unreachable!("two quantiles")
        };
        rep.set("profiles.analyze_us_p50", a50 as f64 / 1e3);
        rep.set("profiles.compile_us_p50", c50 as f64 / 1e3);
        rep.set("profiles.diff_us_p50", d50 as f64 / 1e3);
        rep.set("profiles.diff_us_p90", d90 as f64 / 1e3);
        let share = ratio(diff_total.as_secs_f64(), reload_total.as_secs_f64());
        rep.set("profiles.diff_share_of_reload", share);
        rep.line(format!(
            "policy code (us): analyze p50 {:.1} [n={}], compile p50 {:.1} [n={}], diff p50 {:.1} p90 {:.1} [n={}, {} beyond p90]; diff = {:.1}% of reload call time",
            a50 as f64 / 1e3,
            analyze.count(),
            c50 as f64 / 1e3,
            compile.count(),
            d50 as f64 / 1e3,
            d90 as f64 / 1e3,
            diff.count(),
            diff.beyond(0.9),
            100.0 * share
        ));
    }
    rep.set("peak_rss_mib", inputs::peak_rss_mib());
    rep
}
