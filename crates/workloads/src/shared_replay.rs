//! Multi-threaded replay against one thread-shared Draco process.
//!
//! [`replay`](crate::replay) models N *independent* processes — each
//! shard owns its own tables. This module models the paper's §VI
//! instead: N worker threads of **one** process hammer a single
//! [`SharedDracoProcess`], whose SPT/VAT reads are lock-free and whose
//! miss path serializes per syscall table. Two key mixes bracket the
//! contention space:
//!
//! * [`KeyMix::Skewed`] — every thread replays the *same* trace
//!   (identical seed), so all threads share the same hot argument sets:
//!   after the writer-heavy cold start, the workload is read-dominated
//!   and every thread hits entries some other thread validated;
//! * [`KeyMix::Uniform`] — each thread replays its *own* trace
//!   (per-thread seed), so argument sets are mostly disjoint: threads
//!   keep inserting throughout, exercising the per-table writer locks
//!   and the insert-race accounting.
//!
//! The unmeasured warm-up is run concurrently by all threads — that *is*
//! the writer-heavy cold-start phase, and the contention it produces
//! (lock waits, insert races, seqlock retries) is visible in the final
//! metrics — while `wall_ns` covers only the measured steady-state
//! region, like the per-process replay.

use std::time::Instant;

use draco_core::{ProcessId, SharedDracoProcess};
use draco_obs::{Histogram, MetricsRegistry, ReplayMetrics};
use draco_profiles::{analyze_profile, ProfileGenerator, ProfileKind, ProfileSpec};
use draco_syscalls::SyscallRequest;

use crate::model::WorkloadSpec;
use crate::replay::LATENCY_SAMPLE_INTERVAL;
use crate::TraceGenerator;

/// How per-thread argument-set streams relate to each other.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KeyMix {
    /// All threads replay the same seed: shared hot keys,
    /// read-dominated steady state.
    Skewed,
    /// Per-thread seeds: mostly disjoint keys, writer-heavy throughout.
    Uniform,
}

impl KeyMix {
    /// Both mixes, in report order.
    pub const ALL: [KeyMix; 2] = [KeyMix::Skewed, KeyMix::Uniform];

    /// Stable label used in reports and JSON.
    pub const fn label(self) -> &'static str {
        match self {
            KeyMix::Skewed => "skewed",
            KeyMix::Uniform => "uniform",
        }
    }
}

/// Threading and trace-length parameters of one shared replay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SharedReplayConfig {
    /// Number of worker threads sharing the one process. Must be
    /// nonzero.
    pub threads: usize,
    /// Measured operations per thread.
    pub ops_per_thread: usize,
    /// Unmeasured cold-start operations per thread (run concurrently —
    /// the writer-heavy phase).
    pub warmup_ops: usize,
    /// Base RNG seed; see [`SharedReplayConfig::thread_seed`].
    pub base_seed: u64,
    /// Key-mix shape across threads.
    pub mix: KeyMix,
}

impl SharedReplayConfig {
    /// Seed for one worker thread: the base seed under
    /// [`KeyMix::Skewed`], `base_seed + thread` under
    /// [`KeyMix::Uniform`].
    pub const fn thread_seed(&self, thread: usize) -> u64 {
        match self.mix {
            KeyMix::Skewed => self.base_seed,
            KeyMix::Uniform => self.base_seed.wrapping_add(thread as u64),
        }
    }
}

/// Deterministic counters plus the measured time of one worker thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SharedThreadReport {
    /// Worker index (0-based).
    pub thread: usize,
    /// The seed the worker's trace was generated from.
    pub seed: u64,
    /// Measured checks performed (= `ops_per_thread`).
    pub checks: u64,
    /// Checks whose verdict permitted the call.
    pub allowed: u64,
    /// Checks admitted by the shared SPT or VAT without running the
    /// filter.
    pub cache_hits: u64,
    /// Wall-clock nanoseconds spent in this worker's measured loop.
    pub elapsed_ns: u64,
    /// Sampled per-check wall-clock latency, in nanoseconds.
    pub latency_ns: Histogram,
}

/// The outcome of one shared-process replay.
#[derive(Clone, Debug, PartialEq)]
pub struct SharedReplayReport {
    /// Workload name.
    pub workload: String,
    /// The key mix that was driven.
    pub mix: KeyMix,
    /// Worker-thread count.
    pub threads: Vec<SharedThreadReport>,
    /// Wall-clock nanoseconds for the whole measured parallel region.
    pub wall_ns: u64,
    /// The shared process's merged observability registry (checker
    /// section includes warm-up traffic and the contention counters)
    /// plus a `replay` section for the measured region.
    pub metrics: MetricsRegistry,
}

impl SharedReplayReport {
    /// Total measured checks across workers.
    pub fn total_checks(&self) -> u64 {
        self.threads.iter().map(|t| t.checks).sum()
    }

    /// Aggregate throughput: total measured checks over the parallel
    /// region's wall-clock time.
    pub fn checks_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.total_checks() as f64 * 1e9 / self.wall_ns as f64
    }

    /// Fraction of measured checks that skipped the filter.
    pub fn cache_hit_rate(&self) -> f64 {
        let checks = self.total_checks();
        if checks == 0 {
            return 0.0;
        }
        let hits: u64 = self.threads.iter().map(|t| t.cache_hits).sum();
        hits as f64 / checks as f64
    }

    /// Sampled per-check latency pooled across workers (nanoseconds).
    pub fn latency_hist(&self) -> Histogram {
        let mut pooled = Histogram::default();
        for thread in &self.threads {
            pooled.merge(&thread.latency_ns);
        }
        pooled
    }
}

/// One worker's fully prepared input.
struct ThreadPlan {
    thread: usize,
    seed: u64,
    warmup: Vec<SyscallRequest>,
    measured: Vec<SyscallRequest>,
}

fn plan_threads(spec: &WorkloadSpec, cfg: &SharedReplayConfig) -> Vec<ThreadPlan> {
    (0..cfg.threads)
        .map(|thread| {
            let seed = cfg.thread_seed(thread);
            let trace =
                TraceGenerator::new(spec, seed).generate(cfg.warmup_ops + cfg.ops_per_thread);
            let mut reqs = trace.requests();
            let warmup: Vec<SyscallRequest> = reqs.by_ref().take(cfg.warmup_ops).collect();
            let measured: Vec<SyscallRequest> = reqs.collect();
            ThreadPlan {
                thread,
                seed,
                warmup,
                measured,
            }
        })
        .collect()
}

/// The profile all workers run under: the union of every thread's trace
/// (one process, one installed filter — paper §VI).
fn union_profile(spec: &WorkloadSpec, plans: &[ThreadPlan], kind: ProfileKind) -> ProfileSpec {
    let mut gen = ProfileGenerator::new(spec.name.to_owned());
    for plan in plans {
        for req in plan.warmup.iter().chain(plan.measured.iter()) {
            gen.observe(req);
        }
    }
    gen.emit(kind)
}

/// Replays a workload with `cfg.threads` worker threads sharing one
/// [`SharedDracoProcess`].
///
/// Trace generation, profile generation, filter compilation, and filter
/// analysis happen before any thread is spawned. The concurrent warm-up
/// (the writer-heavy cold start) runs unmeasured behind a barrier;
/// `wall_ns` covers only the measured region. Per-thread allow counts
/// depend only on `(workload, seed, thread)` — cache-hit counts do not
/// (which thread wins a validation race is timing-dependent), but their
/// *sum* with filter runs always equals the check count.
///
/// # Panics
///
/// Panics if `cfg.threads == 0` or a worker thread panics.
pub fn replay_shared(
    spec: &WorkloadSpec,
    kind: ProfileKind,
    cfg: &SharedReplayConfig,
) -> SharedReplayReport {
    replay_shared_inner(spec, kind, cfg, None)
}

/// Like [`replay_shared`], but each worker drives the batch entry point
/// ([`draco_core::SharedThreadHandle::syscall_batch`], a loop over the
/// handle's scalar check), `batch` requests per call. Per-thread allow counts are identical to the scalar shared
/// replay on the same config; cache-hit counts remain timing-dependent
/// across threads exactly as in the scalar case.
///
/// # Panics
///
/// Panics if `cfg.threads == 0`, `batch == 0`, or a worker panics.
pub fn replay_shared_batched(
    spec: &WorkloadSpec,
    kind: ProfileKind,
    cfg: &SharedReplayConfig,
    batch: usize,
) -> SharedReplayReport {
    assert!(batch > 0, "batched replay needs a nonzero batch size");
    replay_shared_inner(spec, kind, cfg, Some(batch))
}

fn replay_shared_inner(
    spec: &WorkloadSpec,
    kind: ProfileKind,
    cfg: &SharedReplayConfig,
    batch: Option<usize>,
) -> SharedReplayReport {
    assert!(cfg.threads > 0, "shared replay needs at least one thread");
    let plans = plan_threads(spec, cfg);
    let profile = union_profile(spec, &plans, kind);
    let analysis = analyze_profile(&profile).expect("generated profiles always compile");
    let process = SharedDracoProcess::spawn_analyzed(ProcessId(0), &profile, &analysis)
        .expect("generated profiles always compile");

    let barrier = std::sync::Barrier::new(cfg.threads + 1);
    let mut threads: Vec<SharedThreadReport> = Vec::with_capacity(plans.len());
    let mut wall_ns = 0u64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .map(|plan| {
                let mut handle = process.spawn_thread();
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut out =
                        vec![draco_core::CheckResult::KILLED; batch.unwrap_or(0)];
                    // Writer-heavy cold start: all threads populate the
                    // shared tables concurrently, unmeasured.
                    match batch {
                        Some(batch) => {
                            for chunk in plan.warmup.chunks(batch) {
                                handle.syscall_batch(chunk, &mut out[..chunk.len()]);
                            }
                        }
                        None => {
                            for req in &plan.warmup {
                                let _ = handle.syscall(req);
                            }
                        }
                    }
                    barrier.wait();
                    let mut allowed = 0u64;
                    let mut cache_hits = 0u64;
                    let mut latency_ns = Histogram::default();
                    let start = Instant::now();
                    match batch {
                        Some(batch) => {
                            let mut index = 0usize;
                            for chunk in plan.measured.chunks(batch) {
                                let offset = index % LATENCY_SAMPLE_INTERVAL;
                                let sampled = offset == 0
                                    || offset + chunk.len() > LATENCY_SAMPLE_INTERVAL;
                                let sample_start = sampled.then(Instant::now);
                                let slots = &mut out[..chunk.len()];
                                handle.syscall_batch(chunk, slots);
                                if let Some(t) = sample_start {
                                    latency_ns.record(
                                        t.elapsed().as_nanos() as u64 / chunk.len() as u64,
                                    );
                                }
                                for decision in slots.iter() {
                                    allowed += u64::from(decision.action.permits());
                                    cache_hits += u64::from(decision.path.is_cache_hit());
                                }
                                index += chunk.len();
                            }
                        }
                        None => {
                            for (i, req) in plan.measured.iter().enumerate() {
                                let sampled = i % LATENCY_SAMPLE_INTERVAL == 0;
                                let sample_start = sampled.then(Instant::now);
                                let result = handle.syscall(req);
                                if let Some(t) = sample_start {
                                    latency_ns.record(t.elapsed().as_nanos() as u64);
                                }
                                allowed += u64::from(result.action.permits());
                                cache_hits += u64::from(result.path.is_cache_hit());
                            }
                        }
                    }
                    let elapsed_ns = start.elapsed().as_nanos() as u64;
                    drop(handle); // flush thread-local stats into the process
                    SharedThreadReport {
                        thread: plan.thread,
                        seed: plan.seed,
                        checks: plan.measured.len() as u64,
                        allowed,
                        cache_hits,
                        elapsed_ns,
                        latency_ns,
                    }
                })
            })
            .collect();
        // Release the measured region only once every worker finished
        // its cold start, then time spawn-to-last-join of that region.
        barrier.wait();
        let start = Instant::now();
        for handle in handles {
            threads.push(handle.join().expect("shared replay worker panicked"));
        }
        wall_ns = start.elapsed().as_nanos() as u64;
    });
    threads.sort_by_key(|t| t.thread);

    let mut metrics = process.metrics();
    metrics.replay = ReplayMetrics {
        shards: threads.len() as u64,
        checks: threads.iter().map(|t| t.checks).sum(),
        allowed: threads.iter().map(|t| t.allowed).sum(),
        cache_hits: threads.iter().map(|t| t.cache_hits).sum(),
    };
    SharedReplayReport {
        workload: spec.name.to_owned(),
        mix: cfg.mix,
        threads,
        wall_ns,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    fn small_cfg(threads: usize, mix: KeyMix) -> SharedReplayConfig {
        SharedReplayConfig {
            threads,
            ops_per_thread: 400,
            warmup_ops: 100,
            base_seed: 2020,
            mix,
        }
    }

    #[test]
    fn thread_counts_and_seeds() {
        let spec = catalog::ipc_pipe();
        let report = replay_shared(
            &spec,
            ProfileKind::SyscallComplete,
            &small_cfg(3, KeyMix::Uniform),
        );
        assert_eq!(report.threads.len(), 3);
        for (i, t) in report.threads.iter().enumerate() {
            assert_eq!(t.thread, i);
            assert_eq!(t.seed, 2020 + i as u64);
            assert_eq!(t.checks, 400);
        }
        assert_eq!(report.total_checks(), 1200);
        assert!(report.checks_per_sec() > 0.0);
    }

    #[test]
    fn skewed_threads_share_one_seed() {
        let cfg = small_cfg(4, KeyMix::Skewed);
        for t in 0..4 {
            assert_eq!(cfg.thread_seed(t), 2020);
        }
        let uniform = small_cfg(4, KeyMix::Uniform);
        assert_eq!(uniform.thread_seed(3), 2023);
    }

    #[test]
    fn allow_counts_are_deterministic_cache_hits_conserved() {
        let spec = catalog::ipc_pipe();
        for mix in KeyMix::ALL {
            let cfg = small_cfg(3, mix);
            let a = replay_shared(&spec, ProfileKind::SyscallComplete, &cfg);
            let b = replay_shared(&spec, ProfileKind::SyscallComplete, &cfg);
            let allowed = |r: &SharedReplayReport| -> Vec<u64> {
                r.threads.iter().map(|t| t.allowed).collect()
            };
            assert_eq!(allowed(&a), allowed(&b), "{}", mix.label());
            // Which thread wins a validation race varies, but every
            // check is either a hit or a filter run.
            let c = &a.metrics.checker;
            assert_eq!(
                c.total(),
                3 * 500,
                "warmup + measured all accounted ({})",
                mix.label()
            );
        }
    }

    #[test]
    fn skewed_mix_is_read_dominated_after_cold_start() {
        let spec = catalog::unixbench_syscall();
        let report = replay_shared(
            &spec,
            ProfileKind::SyscallComplete,
            &small_cfg(3, KeyMix::Skewed),
        );
        assert!(
            report.cache_hit_rate() > 0.8,
            "shared warm tables absorb the measured region, got {}",
            report.cache_hit_rate()
        );
    }

    #[test]
    fn shared_decisions_match_isolated_replay() {
        // One thread against the shared process decides exactly like the
        // per-process replay engine on the same trace (the full N-thread
        // differential test lives in tests/equivalence.rs).
        let spec = catalog::ipc_pipe();
        let shared = replay_shared(
            &spec,
            ProfileKind::SyscallComplete,
            &small_cfg(1, KeyMix::Skewed),
        );
        let again = replay_shared(
            &spec,
            ProfileKind::SyscallComplete,
            &small_cfg(1, KeyMix::Uniform),
        );
        // thread 0 has the same seed under both mixes.
        assert_eq!(shared.threads[0].allowed, again.threads[0].allowed);
        assert_eq!(shared.threads[0].cache_hits, again.threads[0].cache_hits);
    }

    #[test]
    fn metrics_carry_replay_section_and_contention_counters() {
        let spec = catalog::ipc_pipe();
        let report = replay_shared(
            &spec,
            ProfileKind::SyscallComplete,
            &small_cfg(3, KeyMix::Uniform),
        );
        assert_eq!(report.metrics.replay.shards, 3);
        assert_eq!(report.metrics.replay.checks, report.total_checks());
        // Contention counters exist and are consistent: they never
        // exceed what the traffic could have produced. (Whether they are
        // nonzero depends on actual interleaving — on a single-CPU host
        // threads may never collide.)
        let c = &report.metrics.checker;
        assert!(c.insert_races_lost <= c.filter_runs);
        assert!(c.vat_hits + c.spt_hits + c.filter_runs == c.total());
    }

    #[test]
    fn latency_histogram_sees_sampled_checks() {
        let spec = catalog::ipc_pipe();
        let report = replay_shared(
            &spec,
            ProfileKind::SyscallComplete,
            &SharedReplayConfig {
                threads: 2,
                ops_per_thread: 1_000,
                warmup_ops: 50,
                base_seed: 7,
                mix: KeyMix::Skewed,
            },
        );
        // ceil(1000 / 256) = 4 samples per thread.
        assert_eq!(report.latency_hist().count(), 8);
        assert!(report.latency_hist().p50().is_some());
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = replay_shared(
            &catalog::ipc_pipe(),
            ProfileKind::SyscallComplete,
            &SharedReplayConfig {
                threads: 0,
                ops_per_thread: 1,
                warmup_ops: 0,
                base_seed: 0,
                mix: KeyMix::Skewed,
            },
        );
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(KeyMix::Skewed.label(), "skewed");
        assert_eq!(KeyMix::Uniform.label(), "uniform");
    }

    #[test]
    fn batched_shared_replay_matches_scalar_allow_counts() {
        let spec = catalog::ipc_pipe();
        for mix in KeyMix::ALL {
            let cfg = small_cfg(3, mix);
            let scalar = replay_shared(&spec, ProfileKind::SyscallComplete, &cfg);
            for batch in [1usize, 31, 1000] {
                let batched =
                    replay_shared_batched(&spec, ProfileKind::SyscallComplete, &cfg, batch);
                let allowed = |r: &SharedReplayReport| -> Vec<u64> {
                    r.threads.iter().map(|t| t.allowed).collect()
                };
                assert_eq!(
                    allowed(&scalar),
                    allowed(&batched),
                    "{} batch={batch}",
                    mix.label()
                );
                // Every check is still a hit or a filter run, and the
                // batch section reflects the batched traffic.
                let c = &batched.metrics.checker;
                assert_eq!(c.total(), 3 * 500, "{} batch={batch}", mix.label());
                assert_eq!(
                    c.batched_checks,
                    3 * 500,
                    "warmup and measured both batched ({} batch={batch})",
                    mix.label()
                );
                assert!(c.batches > 0, "{} batch={batch}", mix.label());
            }
        }
    }

    #[test]
    #[should_panic(expected = "nonzero batch size")]
    fn zero_batch_rejected() {
        let _ = replay_shared_batched(
            &catalog::ipc_pipe(),
            ProfileKind::SyscallComplete,
            &small_cfg(1, KeyMix::Skewed),
            0,
        );
    }
}
