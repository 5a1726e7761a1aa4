//! A layered benchmark of the Draco checker and the `dracod` service.
//!
//! Four closed-loop workloads, each driven by one thread calling the
//! crates' public functions in their default configuration:
//!
//! | Workload | Layer it stresses |
//! |---|---|
//! | `app-warm` | `draco-core` hit path (SPT, CRC, VAT probe) |
//! | `app-miss` | `draco-bpf` miss engine plus `draco-cuckoo` insert/relocate |
//! | `fleet-steady` | `dracod` drain loop, shared `check_batch`, metrics seal |
//! | `fleet-churn` | `dracod` lifecycle, `draco-profiles` semdiff and compile |
//!
//! A run repeats a fixed unit of work until `--seconds` of timed work
//! have passed and reports medians over units. Every decision is
//! checked against the cBPF VM ([`oracle`]) outside the timed phase.
//! See `README.md` beside this crate for the metric map.

pub mod app;
pub mod fleet;
pub mod inputs;
pub mod oracle;
pub mod report;
pub mod stats;

use std::time::Instant;

use report::Report;
use stats::{median, quartiles, Samples};

/// The four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Warm scalar hit path.
    AppWarm,
    /// Scalar path dominated by misses, denials and evictions.
    AppMiss,
    /// Multi-tenant data plane: submit, drain, seal.
    FleetSteady,
    /// Multi-tenant control plane: register, fork, exec, reload, retire.
    FleetChurn,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::AppWarm,
        Workload::AppMiss,
        Workload::FleetSteady,
        Workload::FleetChurn,
    ];

    /// The `--workload` name.
    pub const fn name(self) -> &'static str {
        match self {
            Workload::AppWarm => "app-warm",
            Workload::AppMiss => "app-miss",
            Workload::FleetSteady => "fleet-steady",
            Workload::FleetChurn => "fleet-churn",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's parameters.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Seed every input derives from.
    pub seed: u64,
    /// Timed work to accumulate, seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub traced: bool,
    /// Test-sized inputs (seconds-scale smoke runs).
    pub tiny: bool,
}

/// Runs one workload and returns its report.
pub fn run(cfg: &Config) -> Report {
    match cfg.workload {
        Workload::AppWarm | Workload::AppMiss => app::run(cfg),
        Workload::FleetSteady => fleet::run_steady(cfg),
        Workload::FleetChurn => fleet::run_churn(cfg),
    }
}

/// Set-up repetitions per run: set-up time is the median of these.
pub(crate) fn setup_repeats(cfg: &Config) -> usize {
    if cfg.tiny {
        2
    } else {
        5
    }
}

/// Iterations of the reference loop per reference step.
const REF_STEP_ITERS: u64 = 1_000;
/// Reference steps per timing of the loop (about 1 ms on a 2020s
/// x86 core).
const REF_STEPS: u64 = 400;
/// Timings per measurement; their median is kept.
const REF_REPEATS: usize = 5;
/// log2 of the words in the reference loop's table, sized like the
/// working set that dominates the workload: 512 KiB for one caller's
/// eight processes and for semdiff over one profile pair at a time
/// (reloads are ~90% of `fleet-churn`), 4 MiB (beyond a core's private
/// caches) for draining 128 tenants' tables in `fleet-steady`.
const fn ref_table_bits(workload: Workload) -> u32 {
    match workload {
        Workload::AppWarm | Workload::AppMiss | Workload::FleetChurn => 16,
        Workload::FleetSteady => 19,
    }
}

/// Sequences the units of one run and times the reference loop
/// between them.
///
/// Unit 0 warms caches and lazily built state and is not timed into
/// any median. Untraced runs time every later unit. Traced runs
/// alternate untraced (even) and traced (odd) units, so both walls come
/// from the same process and the difference is the tracing overhead;
/// the per-layer counts come from unit 1, the first traced unit, which
/// follows the same deterministic history in every run of a seed.
///
/// # The reference loop
///
/// On a shared host the speed of a core drifts by 10-20% over minutes
/// (other tenants, frequency), far more than any bound worth gating on.
/// Before the first unit and after every unit the sequencer times a
/// fixed loop of integer hashing and read-modify-writes into a table the
/// size of the workload's working set. It calls no code of the program,
/// so no change to the program can move it. Each unit's timings are divided by the reference step (the
/// loop's time per 1,000 iterations) measured on both sides of it,
/// which cancels the drift common to both while keeping the ratio
/// between two commits. The raw timings are reported beside them.
#[derive(Debug)]
pub(crate) struct Sequencer {
    seconds: f64,
    traced: bool,
    min_units: usize,
    start: Instant,
    next: usize,
    /// Reference step measured before the current unit, seconds.
    before: f64,
    table: Vec<u64>,
    table_bits: u32,
    /// Untraced units, raw: wall (s), decisions per second, latency
    /// p50, p90 and p99 (ns), and the unit's reference step (ns).
    raw: Vec<[f64; 6]>,
    /// The same units in reference steps: wall, decisions per step,
    /// latency p50, p90 and p99.
    norm: Vec<[f64; 5]>,
    /// The fewest latency samples any untraced unit had, and beyond
    /// its p99.
    fewest: (u64, u64),
    traced_walls: Vec<f64>,
}

impl Sequencer {
    pub(crate) fn new(cfg: &Config) -> Self {
        Sequencer {
            seconds: cfg.seconds,
            traced: cfg.traced,
            min_units: if cfg.tiny { 1 } else { 5 },
            start: Instant::now(),
            next: 0,
            before: 0.0,
            table: vec![0; 1 << ref_table_bits(cfg.workload)],
            table_bits: ref_table_bits(cfg.workload),
            raw: Vec::new(),
            norm: Vec::new(),
            fewest: (u64::MAX, u64::MAX),
            traced_walls: Vec::new(),
        }
    }

    /// The next unit's index and whether it is traced, or `None` when
    /// the run has measured enough.
    pub(crate) fn next_unit(&mut self) -> Option<(usize, bool)> {
        let timed: f64 = self
            .raw
            .iter()
            .map(|r| r[0])
            .chain(self.traced_walls.iter().copied())
            .sum();
        let enough = self.raw.len() >= self.min_units
            && (!self.traced || self.traced_walls.len() >= self.min_units);
        // Past twice the budget (slow host), stop as soon as every kind
        // of unit has one reading, so a run always ends in time.
        let overdue = self.start.elapsed().as_secs_f64() > 2.0 * self.seconds + 30.0
            && !self.raw.is_empty()
            && (!self.traced || !self.traced_walls.is_empty());
        if (timed >= self.seconds && enough) || overdue {
            return None;
        }
        let idx = self.next;
        self.next += 1;
        if idx == 0 {
            self.before = self.reference_step();
        }
        Some((idx, self.traced && idx % 2 == 1))
    }

    /// Times the reference loop [`REF_REPEATS`] times and returns the
    /// median time per reference step, seconds.
    fn reference_step(&mut self) -> f64 {
        let mut times = [0.0; REF_REPEATS];
        for (k, slot) in times.iter_mut().enumerate() {
            let t = Instant::now();
            let mut x = (self.next * REF_REPEATS + k) as u64 + 1;
            for i in 0..REF_STEPS * REF_STEP_ITERS {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
                let j = (x >> (64 - self.table_bits)) as usize;
                self.table[j] = self.table[j].wrapping_add(x ^ (x >> 17));
            }
            std::hint::black_box(&self.table);
            *slot = t.elapsed().as_secs_f64();
        }
        median(&times) / REF_STEPS as f64
    }

    /// Records unit `idx`'s timed wall, the decisions it produced and
    /// their latency samples (empty for traced units), and times the
    /// reference loop after it.
    pub(crate) fn record(
        &mut self,
        idx: usize,
        traced: bool,
        wall_s: f64,
        decisions: u64,
        latency: &Samples,
    ) {
        let after = self.reference_step();
        let step = (self.before + after) / 2.0;
        self.before = after;
        if idx == 0 {
            return;
        }
        if traced {
            self.traced_walls.push(wall_s);
            return;
        }
        // Percentiles of the unit's own samples; the run reports their
        // median over units, so one unit hit by a burst of interference
        // moves it by one place instead of stretching a pooled tail.
        let [p50, p90, p99] = latency.quantiles(&[0.5, 0.9, 0.99])[..] else {
            unreachable!("three quantiles")
        };
        let (p50, p90, p99) = (p50 as f64, p90 as f64, p99 as f64);
        let step_ns = step * 1e9;
        self.raw.push([
            wall_s,
            stats::ratio(decisions as f64, wall_s),
            p50,
            p90,
            p99,
            step_ns,
        ]);
        let wall_ref = wall_s / step;
        self.norm.push([
            wall_ref,
            stats::ratio(decisions as f64, wall_ref),
            p50 / step_ns,
            p90 / step_ns,
            p99 / step_ns,
        ]);
        self.fewest.0 = self.fewest.0.min(latency.count());
        self.fewest.1 = self.fewest.1.min(latency.beyond(0.99));
    }

    /// Writes the medians over untraced units, in seconds and in
    /// reference steps, and the tracing overhead.
    pub(crate) fn finish(&self, rep: &mut Report) {
        let raw = |i: usize| median(&self.raw.iter().map(|r| r[i]).collect::<Vec<_>>());
        let norm = |i: usize| median(&self.norm.iter().map(|r| r[i]).collect::<Vec<_>>());
        let names_raw = [
            "wall_s",
            "checks_per_s",
            "decision_ns_p50",
            "decision_ns_p90",
            "decision_ns_p99",
            "ref.step_ns",
        ];
        let names_norm = [
            "wall_ref",
            "checks_per_ref",
            "decision_ref_p50",
            "decision_ref_p90",
            "decision_ref_p99",
        ];
        for (i, name) in names_raw.iter().enumerate() {
            rep.set(name, raw(i));
        }
        for (i, name) in names_norm.iter().enumerate() {
            rep.set(name, norm(i));
        }
        let walls: Vec<f64> = self.raw.iter().map(|r| r[0]).collect();
        let (q1, q3) = quartiles(&walls);
        rep.line(format!(
            "units: {} untraced, wall median {:.6} s (q1 {q1:.6}, q3 {q3:.6}) = {:.1} ref; reference step median {:.1} ns; {} traced; run {:.2} s",
            self.raw.len(),
            raw(0),
            norm(0),
            raw(5),
            self.traced_walls.len(),
            self.start.elapsed().as_secs_f64()
        ));
        rep.line(format!(
            "decision latency, median over units of each unit's percentile: p50 {:.0} ns ({:.4} ref), p90 {:.0} ns ({:.4} ref), p99 {:.0} ns ({:.4} ref); every unit had at least {} samples, {} beyond its p99",
            raw(2),
            norm(2),
            raw(3),
            norm(3),
            raw(4),
            norm(4),
            self.fewest.0,
            self.fewest.1
        ));
        if self.traced {
            let (wall, traced) = (raw(0), median(&self.traced_walls));
            rep.set("trace.untraced_wall_s", wall);
            rep.set("trace.traced_wall_s", traced);
            rep.set("trace.overhead_s", traced - wall);
            rep.line(format!(
                "tracing overhead: traced {traced:.6} s - untraced {wall:.6} s = {:.6} s per unit",
                traced - wall
            ));
        }
    }
}

/// Median of per-repeat set-up times into `setup_s` and its per-layer
/// breakdown.
pub(crate) fn report_setup(rep: &mut Report, totals: &[f64], parts: &[(&str, Vec<f64>)]) {
    let setup = median(totals);
    rep.set("setup_s", setup);
    let mut line = format!("setup: median {setup:.6} s over {} repeats", totals.len());
    for (name, xs) in parts {
        let m = median(xs);
        rep.set(name, m);
        line.push_str(&format!(", {name} {m:.6}"));
    }
    rep.line(line);
}
