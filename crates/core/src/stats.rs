//! Checker traffic counters.

use core::fmt;

use draco_obs::{CheckerMetrics, Histogram};

use crate::policy::AnalysisPlan;

/// Counters a [`crate::DracoChecker`] maintains across checks.
///
/// These back the evaluation's hit-rate analyses and the software cost
/// model: `filter_insns` is the total number of cBPF instructions the
/// fallback executed — the work Draco saves is exactly the filter
/// instructions *not* in this counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckerStats {
    /// Checks admitted by the SPT alone (ID-only or empty bitmask).
    pub spt_hits: u64,
    /// Subset of `spt_hits` on syscalls the filter analyzer *proved*
    /// always-allowed — hits that skipped CRC hashing and the VAT
    /// because the installed analysis plan discharged argument checking
    /// statically.
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
    /// Seqlock read retries on the shared VAT (a reader collided with an
    /// in-flight writer or saw the slot version change mid-snapshot).
    /// Always zero for per-thread checkers.
    pub seqlock_retries: u64,
    /// Miss-path lock acquisitions that had to wait for another thread
    /// (VAT table writer lock or the shared SPT update lock). Always zero
    /// for per-thread checkers.
    pub vat_lock_waits: u64,
    /// Validations that found their key already resident once the write
    /// lock was held — another thread validated the same argument set
    /// first. Always zero for per-thread checkers.
    pub insert_races_lost: u64,
    /// Hot-reload installs admitted (permissively, or proven safe by
    /// the semantic policy differ under
    /// [`ReloadPolicy::RequireRefinement`](crate::ReloadPolicy)).
    pub reloads_permitted: u64,
    /// Hot-reload installs refused by the `RequireRefinement` gate: the
    /// candidate profile would relax (or is incomparable to) the
    /// installed policy.
    pub reloads_refused: u64,
}

impl CheckerStats {
    /// Total checks observed. Saturating: long-lived checkers whose
    /// counters approach `u64::MAX` must not panic computing a summary.
    pub const fn total(&self) -> u64 {
        self.spt_hits
            .saturating_add(self.vat_hits)
            .saturating_add(self.filter_runs)
    }

    /// Fraction of checks that skipped the filter entirely.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.spt_hits.saturating_add(self.vat_hits) as f64 / total as f64
        }
    }

    /// Accumulates another set of counters (saturating field-wise).
    pub fn accumulate(&mut self, other: &CheckerStats) {
        self.spt_hits = self.spt_hits.saturating_add(other.spt_hits);
        self.always_allow_hits = self.always_allow_hits.saturating_add(other.always_allow_hits);
        self.vat_hits = self.vat_hits.saturating_add(other.vat_hits);
        self.filter_runs = self.filter_runs.saturating_add(other.filter_runs);
        self.filter_insns = self.filter_insns.saturating_add(other.filter_insns);
        self.denials = self.denials.saturating_add(other.denials);
        self.vat_inserts = self.vat_inserts.saturating_add(other.vat_inserts);
        self.seqlock_retries = self.seqlock_retries.saturating_add(other.seqlock_retries);
        self.vat_lock_waits = self.vat_lock_waits.saturating_add(other.vat_lock_waits);
        self.insert_races_lost = self
            .insert_races_lost
            .saturating_add(other.insert_races_lost);
        self.reloads_permitted = self.reloads_permitted.saturating_add(other.reloads_permitted);
        self.reloads_refused = self.reloads_refused.saturating_add(other.reloads_refused);
    }
}

/// Counters for the batched check path
/// ([`crate::DracoChecker::check_batch`] and the shared-thread
/// equivalent).
///
/// Kept separate from [`CheckerStats`] on purpose: a batch produces
/// exactly the same `CheckerStats` as the equivalent scalar loop (the
/// differential test in `tests/equivalence.rs` pins this down), so
/// batch-only bookkeeping must not leak into the shared counters.
///
/// `prefetch_issued` and `miss_dedup_hits` count the per-process
/// checker's staged pipeline only. The shared-thread handle's batch is
/// a loop over its scalar check, so it leaves both at zero.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// `check_batch` invocations.
    pub batches: u64,
    /// Checks submitted through batches.
    pub batched_checks: u64,
    /// Software prefetches the per-process staged pipeline issued
    /// before its probe pass (two per distinct staged key — one per
    /// cuckoo way; in-batch repeats of a key share one prefetch).
    pub prefetch_issued: u64,
    /// Batch-local misses the per-process staged pipeline resolved
    /// from cache in its commit walk because an earlier request in the
    /// same batch validated the key.
    pub miss_dedup_hits: u64,
}

impl BatchStats {
    /// Accumulates another set of counters (saturating field-wise).
    pub fn accumulate(&mut self, other: &BatchStats) {
        self.batches = self.batches.saturating_add(other.batches);
        self.batched_checks = self.batched_checks.saturating_add(other.batched_checks);
        self.prefetch_issued = self.prefetch_issued.saturating_add(other.prefetch_issued);
        self.miss_dedup_hits = self.miss_dedup_hits.saturating_add(other.miss_dedup_hits);
    }
}

/// Everything one checker counts: its [`CheckerStats`], its
/// [`BatchStats`] and the three histograms. The per-process checker,
/// each shared-thread handle, and a shared process's merged total each
/// keep one, so all three assemble the same [`CheckerMetrics`].
#[derive(Clone, Debug, Default)]
pub(crate) struct Counters {
    pub(crate) stats: CheckerStats,
    pub(crate) batch: BatchStats,
    /// Distribution of batch sizes submitted to `check_batch`.
    pub(crate) batch_size: Histogram,
    /// cBPF instructions per fallback run.
    pub(crate) insns_per_filter_run: Histogram,
    /// Filter instructions a cached hit avoided (the running mean of
    /// fallback cost, recorded at hit time).
    pub(crate) saved_insns_per_hit: Histogram,
}

impl Counters {
    /// Mean fallback cost observed so far, in cBPF instructions — what a
    /// cached hit is credited with saving. Integer division keeps the
    /// hot path float-free; 0 until the first filter run.
    pub(crate) fn mean_filter_cost(&self) -> u64 {
        self.stats.filter_insns / self.stats.filter_runs.max(1)
    }

    /// Counts a check the SPT word alone admitted.
    pub(crate) fn spt_hit(&mut self, always_allow: bool) {
        self.stats.spt_hits += 1;
        self.stats.always_allow_hits += u64::from(always_allow);
        self.saved_insns_per_hit.record(self.mean_filter_cost());
    }

    /// Counts a check a VAT probe admitted.
    pub(crate) fn vat_hit(&mut self) {
        self.stats.vat_hits += 1;
        self.saved_insns_per_hit.record(self.mean_filter_cost());
    }

    /// Counts one nonempty batch of `len` requests.
    pub(crate) fn record_batch(&mut self, len: usize) {
        self.batch.batches += 1;
        self.batch.batched_checks += len as u64;
        self.batch_size.record(len as u64);
    }

    /// Accumulates another set of counters (saturating field-wise,
    /// histograms merged).
    pub(crate) fn accumulate(&mut self, other: &Counters) {
        self.stats.accumulate(&other.stats);
        self.batch.accumulate(&other.batch);
        self.batch_size.merge(&other.batch_size);
        self.insns_per_filter_run.merge(&other.insns_per_filter_run);
        self.saved_insns_per_hit.merge(&other.saved_insns_per_hit);
    }

    /// The `checker` section of a metrics snapshot; `plan` supplies the
    /// mask-agreement counters (zero without an analysis plan).
    pub(crate) fn metrics(&self, plan: Option<&AnalysisPlan>) -> CheckerMetrics {
        let stats = &self.stats;
        CheckerMetrics {
            spt_hits: stats.spt_hits,
            always_allow_hits: stats.always_allow_hits,
            vat_hits: stats.vat_hits,
            filter_runs: stats.filter_runs,
            filter_insns: stats.filter_insns,
            denials: stats.denials,
            vat_inserts: stats.vat_inserts,
            seqlock_retries: stats.seqlock_retries,
            vat_lock_waits: stats.vat_lock_waits,
            insert_races_lost: stats.insert_races_lost,
            masks_derived_match: plan.map_or(0, |p| p.derived_match),
            masks_overridden: plan.map_or(0, |p| p.overridden),
            batches: self.batch.batches,
            batched_checks: self.batch.batched_checks,
            prefetch_issued: self.batch.prefetch_issued,
            miss_dedup_hits: self.batch.miss_dedup_hits,
            reloads_permitted: stats.reloads_permitted,
            reloads_refused: stats.reloads_refused,
            batch_size: self.batch_size,
            insns_per_filter_run: self.insns_per_filter_run,
            saved_insns_per_hit: self.saved_insns_per_hit,
        }
    }
}

impl fmt::Display for BatchStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} checks in {} batches, {} prefetches, {} dedup-hits",
            self.batched_checks, self.batches, self.prefetch_issued, self.miss_dedup_hits
        )
    }
}

impl fmt::Display for CheckerStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} checks: {} spt ({} always-allow), {} vat, {} filter ({} insns), {} denied, {} vat-inserts",
            self.total(),
            self.spt_hits,
            self.always_allow_hits,
            self.vat_hits,
            self.filter_runs,
            self.filter_insns,
            self.denials,
            self.vat_inserts
        )?;
        if self.seqlock_retries > 0 || self.vat_lock_waits > 0 || self.insert_races_lost > 0 {
            write!(
                f,
                ", contention: {} seqlock-retries, {} lock-waits, {} races-lost",
                self.seqlock_retries, self.vat_lock_waits, self.insert_races_lost
            )?;
        }
        if self.reloads_permitted > 0 || self.reloads_refused > 0 {
            write!(
                f,
                ", reloads: {} permitted, {} refused",
                self.reloads_permitted, self.reloads_refused
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_rates() {
        let stats = CheckerStats {
            spt_hits: 6,
            always_allow_hits: 3,
            vat_hits: 2,
            filter_runs: 2,
            filter_insns: 100,
            denials: 1,
            vat_inserts: 1,
            ..CheckerStats::default()
        };
        assert_eq!(stats.total(), 10);
        assert!((stats.cache_hit_rate() - 0.8).abs() < 1e-12);
        assert!(stats.to_string().contains("10 checks"));
    }

    #[test]
    fn empty_stats_rate_is_zero() {
        assert_eq!(CheckerStats::default().cache_hit_rate(), 0.0);
    }

    #[test]
    fn display_reports_every_counter() {
        let stats = CheckerStats {
            spt_hits: 1,
            always_allow_hits: 1,
            vat_hits: 2,
            filter_runs: 3,
            filter_insns: 40,
            denials: 5,
            vat_inserts: 6,
            seqlock_retries: 7,
            vat_lock_waits: 8,
            insert_races_lost: 9,
            reloads_permitted: 10,
            reloads_refused: 11,
        };
        let s = stats.to_string();
        assert!(s.contains("6 vat-inserts"), "{s}");
        assert!(s.contains("5 denied"), "{s}");
        assert!(s.contains("1 always-allow"), "{s}");
        assert!(s.contains("7 seqlock-retries"), "{s}");
        assert!(s.contains("8 lock-waits"), "{s}");
        assert!(s.contains("9 races-lost"), "{s}");
        assert!(s.contains("10 permitted"), "{s}");
        assert!(s.contains("11 refused"), "{s}");
    }

    #[test]
    fn uncontended_stats_omit_the_contention_clause() {
        let stats = CheckerStats {
            spt_hits: 1,
            ..CheckerStats::default()
        };
        assert!(!stats.to_string().contains("contention"));
    }

    #[test]
    fn accumulate_covers_contention_counters() {
        let mut a = CheckerStats {
            seqlock_retries: 1,
            vat_lock_waits: u64::MAX,
            insert_races_lost: 2,
            ..CheckerStats::default()
        };
        let b = CheckerStats {
            seqlock_retries: 10,
            vat_lock_waits: 1,
            insert_races_lost: 3,
            ..CheckerStats::default()
        };
        a.accumulate(&b);
        assert_eq!(a.seqlock_retries, 11);
        assert_eq!(a.vat_lock_waits, u64::MAX, "saturates");
        assert_eq!(a.insert_races_lost, 5);
        assert_eq!(a.total(), 0, "contention counters are not checks");
    }

    #[test]
    fn total_saturates_instead_of_overflowing() {
        let stats = CheckerStats {
            spt_hits: u64::MAX,
            vat_hits: u64::MAX,
            filter_runs: 1,
            ..CheckerStats::default()
        };
        assert_eq!(stats.total(), u64::MAX);
        assert!(stats.cache_hit_rate() <= 1.0);
    }

    #[test]
    fn accumulate_saturates_field_wise() {
        let mut a = CheckerStats {
            spt_hits: u64::MAX - 1,
            vat_inserts: 3,
            ..CheckerStats::default()
        };
        let b = CheckerStats {
            spt_hits: 10,
            vat_inserts: 4,
            ..CheckerStats::default()
        };
        a.accumulate(&b);
        assert_eq!(a.spt_hits, u64::MAX);
        assert_eq!(a.vat_inserts, 7);
    }
}
