//! The metric catalog and the report one run prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which run reports a metric: the untraced run (`--trace 0`) reports
/// the end-to-end set, the traced run (`--trace 1`) the per-layer set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Seen by a user of the system; gated with a bound.
    EndToEnd,
    /// One layer's work, time or waste; explains the end-to-end set.
    PerLayer,
}

use Kind::{EndToEnd as E, PerLayer as L};

/// Every metric the benchmark emits, with its unit. Every workload
/// reports every metric of its run's kind; a per-layer metric whose
/// layer a workload does not exercise reads 0.
pub const METRICS: &[(&str, &str, Kind)] = &[
    ("setup_s", "s", E),
    ("wall_ref", "ref", E),
    ("checks_per_ref", "1/ref", E),
    ("decision_ref_p50", "ref", E),
    ("decision_ref_p90", "ref", E),
    ("peak_rss_mib", "MiB", E),
    // The tail percentile does not repeat within a tenth between runs.
    ("decision_ref_p99", "ref", L),
    // The same timings in seconds, which drift with the host's speed.
    ("wall_s", "s", L),
    ("checks_per_s", "1/s", L),
    ("decision_ns_p50", "ns", L),
    ("decision_ns_p90", "ns", L),
    ("decision_ns_p99", "ns", L),
    ("ref.step_ns", "ns", L),
    // Set-up, broken down by the layer doing the work.
    ("workloads.trace_gen_s", "s", L),
    ("workloads.profile_gen_s", "s", L),
    ("core.setup_spawn_s", "s", L),
    ("dracod.setup_register_s", "s", L),
    ("setup.warm_s", "s", L),
    // draco-core checker counters (CheckerStats via MetricsRegistry).
    ("core.checks", "count", L),
    ("core.spt_hits", "count", L),
    ("core.always_allow_hits", "count", L),
    ("core.vat_hits", "count", L),
    ("core.filter_runs", "count", L),
    ("core.vat_inserts", "count", L),
    ("core.denials", "count", L),
    ("core.hit_ratio", "ratio", L),
    ("core.check_busy_s", "s", L),
    // Stage self times from the checker's sampled span tracer.
    ("core.stage.spt_lookup_ns", "ns", L),
    ("core.stage.crc_hash_ns", "ns", L),
    ("core.stage.vat_probe_ns", "ns", L),
    ("core.stage.filter_exec_ns", "ns", L),
    ("core.stage.vat_insert_ns", "ns", L),
    // Batch and shared-storage counters.
    ("core.batches", "count", L),
    ("core.batch_fill", "ratio", L),
    ("core.miss_dedup_hits", "count", L),
    ("core.seqlock_retries", "count", L),
    ("core.insert_races_lost", "count", L),
    // draco-cuckoo VAT tables.
    ("cuckoo.hits", "count", L),
    ("cuckoo.misses", "count", L),
    ("cuckoo.insertions", "count", L),
    ("cuckoo.evictions", "count", L),
    ("cuckoo.relocations", "count", L),
    ("cuckoo.probe_len_mean", "probes", L),
    // draco-bpf miss engine.
    ("bpf.filter_insns", "count", L),
    ("bpf.insns_per_run", "insns", L),
    // draco-profiles policy code, timed on the inputs register/reload got.
    ("profiles.analyze_us_p50", "us", L),
    ("profiles.compile_us_p50", "us", L),
    ("profiles.diff_us_p50", "us", L),
    ("profiles.diff_us_p90", "us", L),
    ("profiles.diff_share_of_reload", "ratio", L),
    // draco-obs.
    ("obs.seal_us_p50", "us", L),
    ("obs.audit_published", "count", L),
    ("obs.audit_dropped", "count", L),
    ("obs.window_intervals", "count", L),
    // dracod service calls.
    ("dracod.submit_busy_s", "s", L),
    ("dracod.drain_busy_s", "s", L),
    ("dracod.drain_overhead_s", "s", L),
    ("dracod.register_us_p50", "us", L),
    ("dracod.register_us_p90", "us", L),
    ("dracod.fork_us_p50", "us", L),
    ("dracod.fork_us_p90", "us", L),
    ("dracod.exec_us_p50", "us", L),
    ("dracod.retire_us_p50", "us", L),
    ("dracod.reload_admit_us_p50", "us", L),
    ("dracod.reload_admit_us_p90", "us", L),
    ("dracod.reload_refuse_us_p50", "us", L),
    ("dracod.reload_refuse_us_p90", "us", L),
    ("dracod.reloads_permitted", "count", L),
    ("dracod.reloads_refused", "count", L),
    ("dracod.share.register", "ratio", L),
    ("dracod.share.fork", "ratio", L),
    ("dracod.share.exec", "ratio", L),
    ("dracod.share.reload", "ratio", L),
    ("dracod.share.retire", "ratio", L),
    ("dracod.share.submit", "ratio", L),
    ("dracod.share.drain", "ratio", L),
    ("dracod.share.audit", "ratio", L),
    ("dracod.share.seal", "ratio", L),
    // The traced run's own accounting.
    ("trace.unaccounted_share", "ratio", L),
    ("trace.untraced_wall_s", "s", L),
    ("trace.traced_wall_s", "s", L),
    ("trace.overhead_s", "s", L),
];

/// Looks a metric up in the catalog.
pub fn lookup(name: &str) -> Option<(&'static str, &'static str, Kind)> {
    METRICS.iter().copied().find(|&(n, _, _)| n == name)
}

/// What one run measured, checked and printed.
#[derive(Debug)]
pub struct Report {
    /// The workload's name.
    pub workload: &'static str,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Operations attempted: decisions plus control-plane calls.
    pub attempted: u64,
    /// Operations that failed: wrong decisions, control calls whose
    /// outcome differs from the schedule, errors, broken identities.
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
    lines: Vec<String>,
    failures: Vec<String>,
}

impl Report {
    /// An empty report.
    pub fn new(workload: &'static str, traced: bool) -> Self {
        Report {
            workload,
            traced,
            attempted: 0,
            failed: 0,
            values: BTreeMap::new(),
            lines: Vec::new(),
            failures: Vec::new(),
        }
    }

    /// Sets a metric.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from [`METRICS`] or a non-finite value
    /// (both are bugs in the benchmark).
    pub fn set(&mut self, name: &str, value: f64) {
        let (name, _, _) = lookup(name).unwrap_or_else(|| panic!("metric {name} not in catalog"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.insert(name, value);
    }

    /// Adds one line to the human-readable report.
    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// Counts one failed operation, keeping the first few reasons.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(why.into());
        }
    }

    /// Checks a conservation identity; a broken one is a failure.
    pub fn identity(&mut self, what: &str, lhs: u64, rhs: u64) {
        if lhs != rhs {
            self.fail(format!("identity {what}: {lhs} != {rhs}"));
        }
    }

    /// The metrics of this run's kind, every one of them: an end-to-end
    /// metric must have been set, a per-layer one not exercised reads 0.
    ///
    /// # Panics
    ///
    /// Panics if an end-to-end metric was never set (a benchmark bug).
    pub fn emitted(&self) -> Vec<(&'static str, &'static str, f64)> {
        let kind = if self.traced {
            Kind::PerLayer
        } else {
            Kind::EndToEnd
        };
        METRICS
            .iter()
            .filter(|&&(_, _, k)| k == kind)
            .map(|&(name, unit, k)| {
                let value = match (self.values.get(name), k) {
                    (Some(&v), _) => v,
                    (None, Kind::PerLayer) => 0.0,
                    (None, Kind::EndToEnd) => panic!("end-to-end metric {name} not measured"),
                };
                (name, unit, value)
            })
            .collect()
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json(&self) -> String {
        let mut out = String::new();
        let correct = self.failed == 0 && self.attempted > 0;
        let _ = write!(
            out,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, (name, unit, value)) in self.emitted().into_iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` prints the shortest string that round-trips, with
            // a decimal point, so every digit measured is kept.
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }

    /// The human-readable report, one line per entry.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        for (name, unit, value) in self.emitted() {
            let _ = writeln!(out, "  {name:<32} {value:>16.6} {unit}");
        }
        let _ = writeln!(
            out,
            "operations: attempted {} failed {}",
            self.attempted, self.failed
        );
        for why in &self.failures {
            let _ = writeln!(out, "  FAILED: {why}");
        }
        out
    }
}

/// Writes the checker, batch, cuckoo and filter-engine counters of one
/// unit (a registry delta) into the report. `batch` is the configured
/// batch size `core.batch_fill` is measured against.
pub fn counters(rep: &mut Report, d: &draco_obs::MetricsRegistry, batch: usize) {
    let c = &d.checker;
    let k = &d.cuckoo;
    let checks = c.total();
    for (name, v) in [
        ("core.checks", checks),
        ("core.spt_hits", c.spt_hits),
        ("core.always_allow_hits", c.always_allow_hits),
        ("core.vat_hits", c.vat_hits),
        ("core.filter_runs", c.filter_runs),
        ("core.vat_inserts", c.vat_inserts),
        ("core.denials", c.denials),
        ("core.batches", c.batches),
        ("core.miss_dedup_hits", c.miss_dedup_hits),
        ("core.seqlock_retries", c.seqlock_retries),
        ("core.insert_races_lost", c.insert_races_lost),
        ("cuckoo.hits", k.hits),
        ("cuckoo.misses", k.misses),
        ("cuckoo.insertions", k.insertions),
        ("cuckoo.evictions", k.evictions),
        ("cuckoo.relocations", k.relocations),
        ("bpf.filter_insns", c.filter_insns),
    ] {
        rep.set(name, v as f64);
    }
    rep.set("core.hit_ratio", c.cache_hit_rate());
    rep.set(
        "core.batch_fill",
        crate::stats::ratio(c.batched_checks as f64, (c.batches * batch as u64) as f64),
    );
    rep.set("cuckoo.probe_len_mean", k.probe_length.mean());
    rep.set(
        "bpf.insns_per_run",
        crate::stats::ratio(c.filter_insns as f64, c.filter_runs as f64),
    );
    if c.seqlock_retries + c.insert_races_lost > 0 {
        rep.line(format!(
            "FINDING: single-threaded run saw {} seqlock retries and {} lost insert races",
            c.seqlock_retries, c.insert_races_lost
        ));
    }
}
