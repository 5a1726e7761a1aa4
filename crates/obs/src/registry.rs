//! The per-layer metric sections and the registry that merges them.

use core::fmt;

use serde::{Deserialize, Serialize};

use crate::Histogram;

/// Labels of the Table-I flow-mix slots, in
/// [`SimMetrics::flow_mix`] index order (matching
/// `draco_sim::Flow::index`).
pub const FLOW_LABELS: [&str; 8] = [
    "spt-only",
    "f1",
    "f2",
    "f3",
    "f4",
    "f5",
    "f6",
    "fallback",
];

/// Checker-layer counters (software Draco, paper Fig. 4).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckerMetrics {
    /// Checks admitted by the SPT alone.
    pub spt_hits: u64,
    /// Subset of `spt_hits` on syscalls the filter analyzer proved
    /// always-allowed: the static-analysis fast path that skips CRC
    /// hashing and the VAT entirely.
    #[serde(default)]
    pub always_allow_hits: u64,
    /// Checks admitted by a VAT probe.
    pub vat_hits: u64,
    /// Checks that fell back to the Seccomp filter.
    pub filter_runs: u64,
    /// Total cBPF instructions executed by fallback runs.
    pub filter_insns: u64,
    /// Checks whose final verdict was a denial.
    pub denials: u64,
    /// Argument-set insertions into the VAT.
    pub vat_inserts: u64,
    /// Seqlock read retries on a shared VAT (reader collided with an
    /// in-flight writer). Zero for per-thread checkers.
    #[serde(default)]
    pub seqlock_retries: u64,
    /// Miss-path lock acquisitions that had to wait for another thread
    /// (shared VAT/SPT only).
    #[serde(default)]
    pub vat_lock_waits: u64,
    /// Validations another thread completed first (the key was already
    /// resident once the write lock was held; shared VAT only).
    #[serde(default)]
    pub insert_races_lost: u64,
    /// Whitelist rules whose analyzer-derived argument mask matched or
    /// narrowed the authored mask (the derived mask was installed).
    #[serde(default)]
    pub masks_derived_match: u64,
    /// Whitelist rules where the derived mask disagreed with the
    /// authored one (the authored mask was kept as the override).
    #[serde(default)]
    pub masks_overridden: u64,
    /// `check_batch` invocations on the batched check path.
    #[serde(default)]
    pub batches: u64,
    /// Checks submitted through the batched check path.
    #[serde(default)]
    pub batched_checks: u64,
    /// Software prefetches issued by the per-process checker's batch
    /// probe pass (two per VAT candidate — one per cuckoo way; the
    /// shared handle's batch loop issues none).
    #[serde(default)]
    pub prefetch_issued: u64,
    /// Batch-local misses the per-process checker's commit walk resolved
    /// from cache because an earlier request in the same batch
    /// validated the key (always zero for the shared handle).
    #[serde(default)]
    pub miss_dedup_hits: u64,
    /// Hot-reload installs admitted (permissively, or proven safe by
    /// the semantic policy differ under `RequireRefinement`).
    #[serde(default)]
    pub reloads_permitted: u64,
    /// Hot-reload installs refused by the `RequireRefinement` gate: the
    /// candidate profile would relax (or is incomparable to) the
    /// installed policy.
    #[serde(default)]
    pub reloads_refused: u64,
    /// Distribution of batch sizes submitted to the batched check path.
    #[serde(default)]
    pub batch_size: Histogram,
    /// cBPF instructions per fallback run.
    pub insns_per_filter_run: Histogram,
    /// Filter instructions *saved* per cached check: at each SPT/VAT
    /// hit, the mean fallback cost observed so far is recorded — the
    /// work Draco's tables absorbed instead of the filter.
    pub saved_insns_per_hit: Histogram,
}

impl CheckerMetrics {
    /// Total checks observed (saturating).
    pub fn total(&self) -> u64 {
        self.spt_hits
            .saturating_add(self.vat_hits)
            .saturating_add(self.filter_runs)
    }

    /// Fraction of checks that skipped the filter entirely.
    pub fn cache_hit_rate(&self) -> f64 {
        ratio(self.spt_hits.saturating_add(self.vat_hits), self.total())
    }

    /// Merges another checker section into this one.
    pub fn merge(&mut self, other: &CheckerMetrics) {
        self.spt_hits = self.spt_hits.saturating_add(other.spt_hits);
        self.always_allow_hits = self.always_allow_hits.saturating_add(other.always_allow_hits);
        self.vat_hits = self.vat_hits.saturating_add(other.vat_hits);
        self.filter_runs = self.filter_runs.saturating_add(other.filter_runs);
        self.filter_insns = self.filter_insns.saturating_add(other.filter_insns);
        self.denials = self.denials.saturating_add(other.denials);
        self.vat_inserts = self.vat_inserts.saturating_add(other.vat_inserts);
        self.seqlock_retries = self.seqlock_retries.saturating_add(other.seqlock_retries);
        self.vat_lock_waits = self.vat_lock_waits.saturating_add(other.vat_lock_waits);
        self.insert_races_lost = self.insert_races_lost.saturating_add(other.insert_races_lost);
        self.masks_derived_match = self.masks_derived_match.saturating_add(other.masks_derived_match);
        self.masks_overridden = self.masks_overridden.saturating_add(other.masks_overridden);
        self.batches = self.batches.saturating_add(other.batches);
        self.batched_checks = self.batched_checks.saturating_add(other.batched_checks);
        self.prefetch_issued = self.prefetch_issued.saturating_add(other.prefetch_issued);
        self.miss_dedup_hits = self.miss_dedup_hits.saturating_add(other.miss_dedup_hits);
        self.reloads_permitted = self.reloads_permitted.saturating_add(other.reloads_permitted);
        self.reloads_refused = self.reloads_refused.saturating_add(other.reloads_refused);
        self.batch_size.merge(&other.batch_size);
        self.insns_per_filter_run.merge(&other.insns_per_filter_run);
        self.saved_insns_per_hit.merge(&other.saved_insns_per_hit);
    }

    /// Counters accumulated since an `earlier` snapshot of the same
    /// section (per-field saturating subtraction — see
    /// [`MetricsRegistry::delta_since`]).
    pub fn delta_since(&self, earlier: &CheckerMetrics) -> CheckerMetrics {
        CheckerMetrics {
            spt_hits: self.spt_hits.saturating_sub(earlier.spt_hits),
            always_allow_hits: self.always_allow_hits.saturating_sub(earlier.always_allow_hits),
            vat_hits: self.vat_hits.saturating_sub(earlier.vat_hits),
            filter_runs: self.filter_runs.saturating_sub(earlier.filter_runs),
            filter_insns: self.filter_insns.saturating_sub(earlier.filter_insns),
            denials: self.denials.saturating_sub(earlier.denials),
            vat_inserts: self.vat_inserts.saturating_sub(earlier.vat_inserts),
            seqlock_retries: self.seqlock_retries.saturating_sub(earlier.seqlock_retries),
            vat_lock_waits: self.vat_lock_waits.saturating_sub(earlier.vat_lock_waits),
            insert_races_lost: self.insert_races_lost.saturating_sub(earlier.insert_races_lost),
            masks_derived_match: self
                .masks_derived_match
                .saturating_sub(earlier.masks_derived_match),
            masks_overridden: self.masks_overridden.saturating_sub(earlier.masks_overridden),
            batches: self.batches.saturating_sub(earlier.batches),
            batched_checks: self.batched_checks.saturating_sub(earlier.batched_checks),
            prefetch_issued: self.prefetch_issued.saturating_sub(earlier.prefetch_issued),
            miss_dedup_hits: self.miss_dedup_hits.saturating_sub(earlier.miss_dedup_hits),
            reloads_permitted: self
                .reloads_permitted
                .saturating_sub(earlier.reloads_permitted),
            reloads_refused: self.reloads_refused.saturating_sub(earlier.reloads_refused),
            batch_size: self.batch_size.delta_since(&earlier.batch_size),
            insns_per_filter_run: self
                .insns_per_filter_run
                .delta_since(&earlier.insns_per_filter_run),
            saved_insns_per_hit: self
                .saved_insns_per_hit
                .delta_since(&earlier.saved_insns_per_hit),
        }
    }
}

/// Cuckoo-table counters, aggregated across every VAT table
/// (paper §V-B, §VII-A).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CuckooMetrics {
    /// Successful lookups.
    pub hits: u64,
    /// Failed lookups.
    pub misses: u64,
    /// Insertions that found a slot (directly or via relocation).
    pub insertions: u64,
    /// Insertions that replaced an existing key's value.
    pub updates: u64,
    /// Entries forcibly evicted under relocation pressure.
    pub evictions: u64,
    /// Total relocation steps across all insertions.
    pub relocations: u64,
    /// Probes per lookup (1 = first-way hit, 2 = second way or miss).
    pub probe_length: Histogram,
    /// Relocation steps per insertion.
    pub relocation_steps: Histogram,
    /// Lookups between successive hits of the same resident entry
    /// (the measured version of Fig. 3's reuse distance).
    pub reuse_distance: Histogram,
}

impl CuckooMetrics {
    /// Lookup hit rate.
    pub fn hit_rate(&self) -> f64 {
        ratio(self.hits, self.hits.saturating_add(self.misses))
    }

    /// Merges another cuckoo section into this one.
    pub fn merge(&mut self, other: &CuckooMetrics) {
        self.hits = self.hits.saturating_add(other.hits);
        self.misses = self.misses.saturating_add(other.misses);
        self.insertions = self.insertions.saturating_add(other.insertions);
        self.updates = self.updates.saturating_add(other.updates);
        self.evictions = self.evictions.saturating_add(other.evictions);
        self.relocations = self.relocations.saturating_add(other.relocations);
        self.probe_length.merge(&other.probe_length);
        self.relocation_steps.merge(&other.relocation_steps);
        self.reuse_distance.merge(&other.reuse_distance);
    }

    /// Counters accumulated since an `earlier` snapshot of the same
    /// section (per-field saturating subtraction).
    pub fn delta_since(&self, earlier: &CuckooMetrics) -> CuckooMetrics {
        CuckooMetrics {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            insertions: self.insertions.saturating_sub(earlier.insertions),
            updates: self.updates.saturating_sub(earlier.updates),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            relocations: self.relocations.saturating_sub(earlier.relocations),
            probe_length: self.probe_length.delta_since(&earlier.probe_length),
            relocation_steps: self.relocation_steps.delta_since(&earlier.relocation_steps),
            reuse_distance: self.reuse_distance.delta_since(&earlier.reuse_distance),
        }
    }
}

/// VAT occupancy gauges (paper §XI-C footprints).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct VatMetrics {
    /// Per-syscall tables allocated.
    pub tables: u64,
    /// Argument sets currently resident across all tables.
    pub resident_sets: u64,
    /// Approximate resident footprint in bytes.
    pub footprint_bytes: u64,
}

impl VatMetrics {
    /// Merges another VAT section (shards own disjoint VATs, so gauges
    /// add).
    pub fn merge(&mut self, other: &VatMetrics) {
        self.tables = self.tables.saturating_add(other.tables);
        self.resident_sets = self.resident_sets.saturating_add(other.resident_sets);
        self.footprint_bytes = self.footprint_bytes.saturating_add(other.footprint_bytes);
    }

    /// Growth since an `earlier` snapshot (saturating subtraction).
    /// These are gauges, so a shrink (flush, eviction) clamps at zero —
    /// window consumers wanting absolute occupancy should read the
    /// cumulative snapshot instead of the delta.
    pub fn delta_since(&self, earlier: &VatMetrics) -> VatMetrics {
        VatMetrics {
            tables: self.tables.saturating_sub(earlier.tables),
            resident_sets: self.resident_sets.saturating_sub(earlier.resident_sets),
            footprint_bytes: self.footprint_bytes.saturating_sub(earlier.footprint_bytes),
        }
    }
}

/// Hardware-simulator counters: STB, SLB, temporary buffer, and the
/// Table-I flow mix.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimMetrics {
    /// STB lookup hits (Fig. 13 "STB").
    pub stb_hits: u64,
    /// STB lookup misses.
    pub stb_misses: u64,
    /// Non-speculative SLB access hits (Fig. 13 "SLB access").
    pub slb_access_hits: u64,
    /// Non-speculative SLB access misses.
    pub slb_access_misses: u64,
    /// Speculative SLB preload-probe hits (Fig. 13 "SLB preload").
    pub slb_preload_hits: u64,
    /// Speculative SLB preload-probe misses.
    pub slb_preload_misses: u64,
    /// Entries staged into the temporary buffer (§IX).
    pub tempbuf_staged: u64,
    /// Staged entries committed into the SLB.
    pub tempbuf_commits: u64,
    /// Squashes that cleared the temporary buffer.
    pub tempbuf_squashes: u64,
    /// Table-I flow occupancy, indexed like `Flow::index`
    /// (labels in [`FLOW_LABELS`]).
    pub flow_mix: [u64; 8],
}

impl SimMetrics {
    /// STB hit rate.
    pub fn stb_hit_rate(&self) -> f64 {
        ratio(self.stb_hits, self.stb_hits.saturating_add(self.stb_misses))
    }

    /// SLB access hit rate.
    pub fn slb_access_hit_rate(&self) -> f64 {
        ratio(
            self.slb_access_hits,
            self.slb_access_hits.saturating_add(self.slb_access_misses),
        )
    }

    /// SLB preload hit rate.
    pub fn slb_preload_hit_rate(&self) -> f64 {
        ratio(
            self.slb_preload_hits,
            self.slb_preload_hits.saturating_add(self.slb_preload_misses),
        )
    }

    /// Total syscalls classified into a flow.
    pub fn flow_total(&self) -> u64 {
        self.flow_mix
            .iter()
            .fold(0u64, |acc, &c| acc.saturating_add(c))
    }

    /// Merges another sim section into this one.
    pub fn merge(&mut self, other: &SimMetrics) {
        self.stb_hits = self.stb_hits.saturating_add(other.stb_hits);
        self.stb_misses = self.stb_misses.saturating_add(other.stb_misses);
        self.slb_access_hits = self.slb_access_hits.saturating_add(other.slb_access_hits);
        self.slb_access_misses = self.slb_access_misses.saturating_add(other.slb_access_misses);
        self.slb_preload_hits = self.slb_preload_hits.saturating_add(other.slb_preload_hits);
        self.slb_preload_misses = self
            .slb_preload_misses
            .saturating_add(other.slb_preload_misses);
        self.tempbuf_staged = self.tempbuf_staged.saturating_add(other.tempbuf_staged);
        self.tempbuf_commits = self.tempbuf_commits.saturating_add(other.tempbuf_commits);
        self.tempbuf_squashes = self.tempbuf_squashes.saturating_add(other.tempbuf_squashes);
        for (a, b) in self.flow_mix.iter_mut().zip(other.flow_mix.iter()) {
            *a = a.saturating_add(*b);
        }
    }

    /// Counters accumulated since an `earlier` snapshot of the same
    /// section (per-field saturating subtraction, flow mix
    /// element-wise).
    pub fn delta_since(&self, earlier: &SimMetrics) -> SimMetrics {
        let mut flow_mix = [0u64; 8];
        for (o, (a, b)) in flow_mix
            .iter_mut()
            .zip(self.flow_mix.iter().zip(earlier.flow_mix.iter()))
        {
            *o = a.saturating_sub(*b);
        }
        SimMetrics {
            stb_hits: self.stb_hits.saturating_sub(earlier.stb_hits),
            stb_misses: self.stb_misses.saturating_sub(earlier.stb_misses),
            slb_access_hits: self.slb_access_hits.saturating_sub(earlier.slb_access_hits),
            slb_access_misses: self.slb_access_misses.saturating_sub(earlier.slb_access_misses),
            slb_preload_hits: self.slb_preload_hits.saturating_sub(earlier.slb_preload_hits),
            slb_preload_misses: self
                .slb_preload_misses
                .saturating_sub(earlier.slb_preload_misses),
            tempbuf_staged: self.tempbuf_staged.saturating_sub(earlier.tempbuf_staged),
            tempbuf_commits: self.tempbuf_commits.saturating_sub(earlier.tempbuf_commits),
            tempbuf_squashes: self.tempbuf_squashes.saturating_sub(earlier.tempbuf_squashes),
            flow_mix,
        }
    }
}

/// Replay-engine counters (one shard, or the merge of many).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplayMetrics {
    /// Shards merged into this section.
    pub shards: u64,
    /// Measured checks performed.
    pub checks: u64,
    /// Checks whose verdict permitted the call.
    pub allowed: u64,
    /// Checks admitted by SPT or VAT without running the filter.
    pub cache_hits: u64,
}

impl ReplayMetrics {
    /// Merges another replay section into this one.
    pub fn merge(&mut self, other: &ReplayMetrics) {
        self.shards = self.shards.saturating_add(other.shards);
        self.checks = self.checks.saturating_add(other.checks);
        self.allowed = self.allowed.saturating_add(other.allowed);
        self.cache_hits = self.cache_hits.saturating_add(other.cache_hits);
    }

    /// Counters accumulated since an `earlier` snapshot of the same
    /// section (per-field saturating subtraction).
    pub fn delta_since(&self, earlier: &ReplayMetrics) -> ReplayMetrics {
        ReplayMetrics {
            shards: self.shards.saturating_sub(earlier.shards),
            checks: self.checks.saturating_sub(earlier.checks),
            allowed: self.allowed.saturating_sub(earlier.allowed),
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
        }
    }
}

/// The unified per-run metric registry every layer feeds.
///
/// Each section is owned by one layer: `checker` by the software
/// checker, `cuckoo`/`vat` by the VAT's cuckoo tables, `sim` by the
/// hardware model, `replay` by the sharded replay engine. Unused
/// sections stay zeroed. All fields are saturating sums, so
/// [`MetricsRegistry::merge`] is associative and commutative — per-shard
/// registries merge to identical totals in any interleaving.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsRegistry {
    /// Software checker section.
    pub checker: CheckerMetrics,
    /// Cuckoo/VAT-table section (aggregated across tables).
    pub cuckoo: CuckooMetrics,
    /// VAT occupancy gauges.
    pub vat: VatMetrics,
    /// Hardware-simulator section.
    pub sim: SimMetrics,
    /// Replay-engine section.
    pub replay: ReplayMetrics,
}

impl MetricsRegistry {
    /// Merges another registry into this one, section by section.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        self.checker.merge(&other.checker);
        self.cuckoo.merge(&other.cuckoo);
        self.vat.merge(&other.vat);
        self.sim.merge(&other.sim);
        self.replay.merge(&other.replay);
    }

    /// Merges a sequence of registries into one (fold over
    /// [`MetricsRegistry::merge`]).
    pub fn merged<'a>(parts: impl IntoIterator<Item = &'a MetricsRegistry>) -> MetricsRegistry {
        let mut out = MetricsRegistry::default();
        for part in parts {
            out.merge(part);
        }
        out
    }

    /// Counters accumulated since an `earlier` cumulative snapshot: the
    /// per-field saturating subtraction `self - earlier`, applied
    /// section by section (histograms element-wise).
    ///
    /// With `earlier` an older snapshot of the same monotonically
    /// growing registry, the result is exactly the interval's traffic,
    /// and deltas compose: merging consecutive interval deltas
    /// reconstructs the cumulative difference over the combined span.
    /// Because every field subtracts saturating, a non-monotone input
    /// (a gauge that shrank, a counter that saturated mid-interval)
    /// clamps at zero rather than wrapping to a huge value — the
    /// windowed-delta invariant the time-series engine relies on.
    pub fn delta_since(&self, earlier: &MetricsRegistry) -> MetricsRegistry {
        MetricsRegistry {
            checker: self.checker.delta_since(&earlier.checker),
            cuckoo: self.cuckoo.delta_since(&earlier.cuckoo),
            vat: self.vat.delta_since(&earlier.vat),
            sim: self.sim.delta_since(&earlier.sim),
            replay: self.replay.delta_since(&earlier.replay),
        }
    }
}

impl fmt::Display for MetricsRegistry {
    /// The human-readable snapshot `dracoctl stats` prints.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = &self.checker;
        writeln!(
            f,
            "checker : {} checks ({:.1}% cached): {} spt, {} vat, {} filter ({} insns), {} denied, {} vat-inserts",
            c.total(),
            c.cache_hit_rate() * 100.0,
            c.spt_hits,
            c.vat_hits,
            c.filter_runs,
            c.filter_insns,
            c.denials,
            c.vat_inserts
        )?;
        if c.always_allow_hits > 0 || c.masks_derived_match > 0 || c.masks_overridden > 0 {
            writeln!(
                f,
                "  analysis         : {} always-allow hits, {} derived masks installed, {} authored overrides",
                c.always_allow_hits, c.masks_derived_match, c.masks_overridden
            )?;
        }
        if c.seqlock_retries > 0 || c.vat_lock_waits > 0 || c.insert_races_lost > 0 {
            writeln!(
                f,
                "  contention       : {} seqlock retries, {} lock waits, {} insert races lost",
                c.seqlock_retries, c.vat_lock_waits, c.insert_races_lost
            )?;
        }
        if c.batched_checks > 0 {
            writeln!(
                f,
                "  batch            : {} checks in {} batches, {} prefetches, {} dedup hits, sizes {}",
                c.batched_checks, c.batches, c.prefetch_issued, c.miss_dedup_hits, c.batch_size
            )?;
        }
        if !c.insns_per_filter_run.is_empty() {
            writeln!(f, "  insns/filter-run : {}", c.insns_per_filter_run)?;
        }
        if !c.saved_insns_per_hit.is_empty() {
            writeln!(f, "  saved-insns/hit  : {}", c.saved_insns_per_hit)?;
        }
        let k = &self.cuckoo;
        writeln!(
            f,
            "cuckoo  : {} hits / {} misses ({:.1}%), {} inserts, {} updates, {} evictions, {} relocations",
            k.hits,
            k.misses,
            k.hit_rate() * 100.0,
            k.insertions,
            k.updates,
            k.evictions,
            k.relocations
        )?;
        if !k.probe_length.is_empty() {
            writeln!(f, "  probe-length     : {}", k.probe_length)?;
        }
        if !k.relocation_steps.is_empty() {
            writeln!(f, "  relocation-steps : {}", k.relocation_steps)?;
        }
        if !k.reuse_distance.is_empty() {
            writeln!(f, "  reuse-distance   : {}", k.reuse_distance)?;
        }
        let v = &self.vat;
        writeln!(
            f,
            "vat     : {} tables, {} resident sets, {} bytes",
            v.tables, v.resident_sets, v.footprint_bytes
        )?;
        let s = &self.sim;
        if s.flow_total() > 0 || s.stb_hits + s.stb_misses > 0 {
            writeln!(
                f,
                "sim     : stb {:.1}%, slb access {:.1}%, slb preload {:.1}%, tempbuf {} staged / {} committed / {} squashes",
                s.stb_hit_rate() * 100.0,
                s.slb_access_hit_rate() * 100.0,
                s.slb_preload_hit_rate() * 100.0,
                s.tempbuf_staged,
                s.tempbuf_commits,
                s.tempbuf_squashes
            )?;
            write!(f, "  flow-mix         :")?;
            for (label, count) in FLOW_LABELS.iter().zip(s.flow_mix.iter()) {
                if *count > 0 {
                    write!(f, " {label}={count}")?;
                }
            }
            writeln!(f)?;
        }
        let r = &self.replay;
        if r.checks > 0 {
            writeln!(
                f,
                "replay  : {} shards, {} checks, {} allowed, {} cache hits",
                r.shards, r.checks, r.allowed, r.cache_hits
            )?;
        }
        Ok(())
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seed: u64) -> MetricsRegistry {
        let mut r = MetricsRegistry::default();
        r.checker.spt_hits = seed;
        r.checker.always_allow_hits = seed / 2;
        r.checker.vat_hits = seed * 2;
        r.checker.filter_runs = seed + 1;
        r.checker.masks_derived_match = seed;
        r.checker.masks_overridden = 1;
        r.checker.seqlock_retries = seed / 3;
        r.checker.vat_lock_waits = seed / 4;
        r.checker.insert_races_lost = seed / 5;
        r.checker.batches = seed / 2;
        r.checker.batched_checks = seed * 4;
        r.checker.prefetch_issued = seed * 8;
        r.checker.miss_dedup_hits = seed / 3;
        r.checker.batch_size.record(seed + 1);
        r.checker.insns_per_filter_run.record(seed + 3);
        r.checker.saved_insns_per_hit.record(seed);
        r.cuckoo.hits = seed * 3;
        r.cuckoo.misses = 1;
        r.cuckoo.probe_length.record(1);
        r.cuckoo.probe_length.record(2);
        r.cuckoo.reuse_distance.record(seed * 10);
        r.vat.tables = 2;
        r.vat.resident_sets = seed;
        r.sim.stb_hits = seed;
        r.sim.flow_mix[1] = seed;
        r.replay.shards = 1;
        r.replay.checks = seed * 100;
        r
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let parts = [sample(1), sample(5), sample(9)];
        // Left fold.
        let mut left = parts[0];
        left.merge(&parts[1]);
        left.merge(&parts[2]);
        // Right fold.
        let mut bc = parts[1];
        bc.merge(&parts[2]);
        let mut right = parts[0];
        right.merge(&bc);
        assert_eq!(left, right, "associativity");
        // Reversed order.
        let mut rev = parts[2];
        rev.merge(&parts[1]);
        rev.merge(&parts[0]);
        assert_eq!(left, rev, "commutativity");
        // The helper agrees.
        assert_eq!(MetricsRegistry::merged(parts.iter()), left);
    }

    #[test]
    fn merge_with_default_is_identity() {
        let r = sample(7);
        let mut merged = r;
        merged.merge(&MetricsRegistry::default());
        assert_eq!(merged, r);
        let mut other = MetricsRegistry::default();
        other.merge(&r);
        assert_eq!(other, r);
    }

    #[test]
    fn rates_guard_empty_sections() {
        let r = MetricsRegistry::default();
        assert_eq!(r.checker.cache_hit_rate(), 0.0);
        assert_eq!(r.cuckoo.hit_rate(), 0.0);
        assert_eq!(r.sim.stb_hit_rate(), 0.0);
        assert_eq!(r.sim.slb_access_hit_rate(), 0.0);
        assert_eq!(r.sim.slb_preload_hit_rate(), 0.0);
    }

    #[test]
    fn saturating_totals_cannot_overflow() {
        let c = CheckerMetrics {
            spt_hits: u64::MAX,
            vat_hits: u64::MAX,
            filter_runs: u64::MAX,
            ..CheckerMetrics::default()
        };
        assert_eq!(c.total(), u64::MAX);
        let mut a = c;
        a.merge(&c);
        assert_eq!(a.spt_hits, u64::MAX);
    }

    #[test]
    fn display_mentions_every_fed_section() {
        let r = sample(4);
        let text = r.to_string();
        assert!(text.contains("checker"), "{text}");
        assert!(text.contains("cuckoo"), "{text}");
        assert!(text.contains("vat"), "{text}");
        assert!(text.contains("sim"), "{text}");
        assert!(text.contains("replay"), "{text}");
        assert!(text.contains("flow-mix"), "{text}");
        assert!(text.contains("f1=4"), "{text}");
    }

    #[test]
    fn serde_round_trip_preserves_everything() {
        let r = sample(3);
        let json = serde_json::to_string_pretty(&r).expect("serializes");
        let back: MetricsRegistry = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, r);
        // The JSON exposes the documented section names.
        for key in ["checker", "cuckoo", "vat", "sim", "replay"] {
            assert!(json.contains(&format!("\"{key}\"")), "missing {key}");
        }
    }

    #[test]
    fn checker_json_without_analysis_keys_still_parses() {
        // Registries serialized before the analysis counters existed
        // lack these keys; `#[serde(default)]` must zero-fill them.
        let r = sample(6);
        let json: String = serde_json::to_string_pretty(&r)
            .expect("serializes")
            .lines()
            .filter(|line| {
                !line.contains("\"always_allow_hits\"")
                    && !line.contains("\"masks_derived_match\"")
                    && !line.contains("\"masks_overridden\"")
            })
            .collect::<Vec<_>>()
            .join("\n");
        let back: MetricsRegistry = serde_json::from_str(&json).expect("parses");
        assert_eq!(back.checker.always_allow_hits, 0);
        assert_eq!(back.checker.masks_derived_match, 0);
        assert_eq!(back.checker.masks_overridden, 0);
        assert_eq!(back.checker.spt_hits, r.checker.spt_hits);
        assert_eq!(back.cuckoo, r.cuckoo);
    }

    #[test]
    fn checker_json_without_contention_keys_still_parses() {
        // Registries serialized before the shared-table contention
        // counters existed lack these keys; `#[serde(default)]` must
        // zero-fill them.
        let r = sample(9);
        let json: String = serde_json::to_string_pretty(&r)
            .expect("serializes")
            .lines()
            .filter(|line| {
                !line.contains("\"seqlock_retries\"")
                    && !line.contains("\"vat_lock_waits\"")
                    && !line.contains("\"insert_races_lost\"")
            })
            .collect::<Vec<_>>()
            .join("\n");
        let back: MetricsRegistry = serde_json::from_str(&json).expect("parses");
        assert_eq!(back.checker.seqlock_retries, 0);
        assert_eq!(back.checker.vat_lock_waits, 0);
        assert_eq!(back.checker.insert_races_lost, 0);
        assert_eq!(back.checker.spt_hits, r.checker.spt_hits);
    }

    #[test]
    fn checker_json_without_batch_keys_still_parses() {
        // Registries serialized before the batched check path existed
        // lack these keys; `#[serde(default)]` must zero-fill them.
        let r = sample(8);
        let json: String = serde_json::to_string_pretty(&r)
            .expect("serializes")
            .lines()
            .filter(|line| {
                !line.contains("\"batches\"")
                    && !line.contains("\"batched_checks\"")
                    && !line.contains("\"prefetch_issued\"")
                    && !line.contains("\"miss_dedup_hits\"")
            })
            .collect::<Vec<_>>()
            .join("\n");
        // `batch_size` is a multi-line histogram object; strip the whole
        // block by matching its braces (the vendored serde_json exposes
        // no mutation API).
        let start = json.find("\"batch_size\"").expect("key present");
        let mut depth = 0usize;
        let mut end = json.len();
        for (i, b) in json.bytes().enumerate().skip(start) {
            match b {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = i + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        if json[end..].starts_with(',') {
            end += 1;
        }
        let stripped = format!("{}{}", &json[..start], &json[end..]);
        let back: MetricsRegistry =
            serde_json::from_str(&stripped).expect("parses without batch keys");
        assert_eq!(back.checker.batches, 0);
        assert_eq!(back.checker.batched_checks, 0);
        assert_eq!(back.checker.prefetch_issued, 0);
        assert_eq!(back.checker.miss_dedup_hits, 0);
        assert_eq!(back.checker.batch_size.count(), 0);
        assert_eq!(back.checker.spt_hits, r.checker.spt_hits);
    }

    #[test]
    fn display_reports_batch_section_only_when_present() {
        let mut r = MetricsRegistry::default();
        r.checker.spt_hits = 4;
        assert!(!r.to_string().contains("batch"));
        r.checker.batches = 2;
        r.checker.batched_checks = 9;
        r.checker.prefetch_issued = 6;
        let text = r.to_string();
        assert!(text.contains("9 checks in 2 batches"), "{text}");
        assert!(text.contains("6 prefetches"), "{text}");
    }

    #[test]
    fn display_reports_contention_only_when_present() {
        let mut r = MetricsRegistry::default();
        r.checker.spt_hits = 4;
        assert!(!r.to_string().contains("contention"));
        r.checker.seqlock_retries = 2;
        let text = r.to_string();
        assert!(text.contains("contention"), "{text}");
        assert!(text.contains("2 seqlock retries"), "{text}");
    }

    #[test]
    fn flow_labels_cover_all_slots() {
        assert_eq!(FLOW_LABELS.len(), 8);
        assert_eq!(FLOW_LABELS[0], "spt-only");
        assert_eq!(FLOW_LABELS[7], "fallback");
    }

    #[test]
    fn delta_since_inverts_merge() {
        // cumulative = earlier + growth  =>  delta_since(earlier) == growth.
        let earlier = sample(5);
        let growth = sample(3);
        let mut cumulative = earlier;
        cumulative.merge(&growth);
        assert_eq!(cumulative.delta_since(&earlier), growth);
        // Delta against itself is all-zero; a "backwards" delta clamps
        // at zero instead of wrapping.
        assert_eq!(
            cumulative.delta_since(&cumulative),
            MetricsRegistry::default()
        );
        assert_eq!(earlier.delta_since(&cumulative), MetricsRegistry::default());
    }

    proptest::proptest! {
        /// The windowed-delta invariant: over a monotone sequence of
        /// cumulative snapshots, merging the per-interval deltas
        /// reconstructs the cumulative growth exactly, and no delta
        /// field ever "goes negative" (wraps) — saturating subtraction
        /// clamps instead.
        #[test]
        fn interval_deltas_sum_to_cumulative(
            seeds in proptest::collection::vec(0u64..1000, 1..16),
        ) {
            // Build a monotone cumulative chain by merging increments.
            let mut snapshots = vec![MetricsRegistry::default()];
            for &seed in &seeds {
                let mut next = *snapshots.last().unwrap();
                next.merge(&sample(seed));
                snapshots.push(next);
            }
            let mut recombined = MetricsRegistry::default();
            for pair in snapshots.windows(2) {
                let delta = pair[1].delta_since(&pair[0]);
                // Each interval delta is exactly the increment fed in.
                recombined.merge(&delta);
                // No wrap: every counter in the delta is bounded by the
                // later cumulative snapshot.
                proptest::prop_assert!(delta.checker.total() <= pair[1].checker.total());
                proptest::prop_assert!(delta.checker.denials <= pair[1].checker.denials);
            }
            let total = snapshots.last().unwrap();
            proptest::prop_assert_eq!(
                &recombined,
                &total.delta_since(&snapshots[0]),
                "sum of interval deltas must equal the cumulative growth"
            );
            proptest::prop_assert_eq!(recombined, *total, "grown from zero");
        }
    }
}
