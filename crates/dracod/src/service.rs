//! The tenant registry and request loop of `dracod`.
//!
//! A **tenant** is one admission-controlled principal (a container, a
//! sandboxed process tree): it owns a seccomp profile, a
//! [`SharedDracoProcess`] (shared SPT/VAT plus the analysis plan when
//! enabled), a submission queue, and a latency histogram. The service
//! multiplexes every tenant over one request loop: callers
//! [`DracoService::submit`] requests at any time, and each
//! [`DracoService::drain`] round walks the registry in tenant order,
//! popping up to `batch` requests per pass into
//! [`SharedThreadHandle::check_batch`] (a loop over the handle's scalar
//! check) until every queue is empty.
//!
//! # Isolation
//!
//! Tenants share *nothing* checkable: each has its own SPT words, VAT
//! tables, policy, and epoch, so tenant A's traffic can neither warm nor
//! evict tenant B's cache, and A's reloads never flush B. The
//! repo's differential tests prove this by replaying each tenant's
//! stream against a standalone checker and requiring byte-equal
//! decisions and counters. The only shared object is the denial-audit
//! ring, where events carry the owning tenant's pid as `source`.
//!
//! # Lifecycle
//!
//! `register` → (`fork` | `exec`)* → `reload`* → `retire`. Tenant ids
//! and process ids come from one monotone allocator and are **never
//! reused**, so a retired tenant's ProcessId can never be confused with
//! a live one's (and audit events stay attributable forever). Hot
//! reloads go through [`SharedDracoProcess::install_additional_with`]
//! under the service's [`ReloadPolicy`]: a refused reload leaves the old
//! filter serving and every cached validation intact.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::time::Instant;

#[cfg(loom)]
use loom::sync::Arc;
#[cfg(not(loom))]
use std::sync::Arc;

use draco_core::{
    CheckResult, CheckerStats, DracoError, EngineKind, ProcessId, ReloadDecision, ReloadPolicy,
    SharedDracoProcess, SharedThreadHandle,
};
use draco_obs::{AuditRing, Histogram, MetricsRegistry, MetricsWindow};
use draco_profiles::ProfileSpec;
use draco_syscalls::SyscallRequest;

/// A tenant's identity within one service. Allocated monotonically and
/// never reused; numerically equal to the tenant's [`ProcessId`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u32);

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant:{}", self.0)
    }
}

/// Why a service call failed.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServiceError {
    /// The tenant id is not (or no longer) registered.
    UnknownTenant(TenantId),
    /// The underlying checker operation failed (filter compile error,
    /// or a reload refused by the policy gate).
    Draco(DracoError),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownTenant(id) => write!(f, "unknown tenant {id}"),
            ServiceError::Draco(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<DracoError> for ServiceError {
    fn from(e: DracoError) -> Self {
        ServiceError::Draco(e)
    }
}

/// Service-wide parameters, fixed at construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Maximum requests drained per tenant per `check_batch` call.
    pub batch: usize,
    /// The gate every [`DracoService::reload`] runs under.
    pub reload_policy: ReloadPolicy,
    /// Miss-path filter engine for every tenant checker.
    pub engine: EngineKind,
    /// Run the filter analysis at register/exec time and install the
    /// derived analysis plan (forks share it) — proven always-allow
    /// syscalls then skip CRC+VAT entirely.
    pub analyzed: bool,
    /// Denial-audit ring capacity (events buffered between drains).
    pub audit_capacity: usize,
    /// Token-bucket burst for the audit ring; `u64::MAX` disables rate
    /// limiting.
    pub audit_burst: u64,
    /// Metrics window ring capacity (intervals retained).
    pub window_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            batch: 128,
            reload_policy: ReloadPolicy::RequireRefinement,
            engine: EngineKind::Compiled,
            analyzed: false,
            audit_capacity: 4096,
            audit_burst: u64::MAX,
            window_capacity: 64,
        }
    }
}

/// Monotone service-level counters (decision totals are summed over
/// retired tenants too, so they never go backwards).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceCounters {
    /// Tenants created via [`DracoService::register`].
    pub registered: u64,
    /// Tenants created via [`DracoService::fork`].
    pub forked: u64,
    /// Tenants whose process was replaced via [`DracoService::exec`].
    pub execs: u64,
    /// Tenants removed via [`DracoService::retire`].
    pub retired: u64,
    /// Hot reloads admitted by the policy gate.
    pub reloads_permitted: u64,
    /// Hot reloads refused by the policy gate (old filter kept serving).
    pub reloads_refused: u64,
    /// Completed [`DracoService::drain`] rounds.
    pub drain_rounds: u64,
    /// `check_batch` calls issued across all rounds.
    pub batches: u64,
    /// Admission decisions produced.
    pub checks: u64,
    /// Decisions that permitted the call.
    pub allowed: u64,
    /// Decisions that denied the call (the filter ran; cached entries
    /// only ever readmit allowed pairs).
    pub denials: u64,
    /// Decisions served from the tenant's SPT or VAT.
    pub cache_hits: u64,
    /// Requests still queued when their tenant retired (discarded).
    pub dropped_requests: u64,
}

/// What one [`DracoService::drain`] round processed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DrainSummary {
    /// Tenants that had at least one queued request.
    pub tenants_served: u64,
    /// `check_batch` calls issued.
    pub batches: u64,
    /// Decisions produced this round.
    pub checks: u64,
    /// Decisions that permitted the call.
    pub allowed: u64,
    /// Decisions that denied the call.
    pub denials: u64,
    /// Decisions served from SPT/VAT.
    pub cache_hits: u64,
}

/// A point-in-time view of one tenant.
#[derive(Clone, Debug)]
pub struct TenantSnapshot {
    /// The tenant's id.
    pub id: TenantId,
    /// The tenant's (never-reused) process id.
    pub pid: ProcessId,
    /// Installed profile name (post-reload names reflect the
    /// intersection).
    pub profile: String,
    /// The parent tenant, for forked tenants.
    pub parent: Option<TenantId>,
    /// Requests currently queued.
    pub queued: usize,
    /// Decisions produced for this tenant so far.
    pub checks: u64,
    /// Decisions that permitted the call.
    pub allowed: u64,
    /// Decisions that denied the call.
    pub denials: u64,
    /// Decisions served from the tenant's SPT/VAT.
    pub cache_hits: u64,
    /// Per-request service latency (batch wall time over batch length),
    /// nanoseconds.
    pub latency_ns: Histogram,
}

/// One tenant's shard: checker state plus queue and accounting.
struct Tenant {
    process: SharedDracoProcess,
    handle: SharedThreadHandle,
    queue: VecDeque<SyscallRequest>,
    profile_name: String,
    parent: Option<TenantId>,
    latency_ns: Histogram,
    checks: u64,
    allowed: u64,
    denials: u64,
    cache_hits: u64,
    /// Stats of processes this tenant already replaced via `exec`.
    prior_stats: CheckerStats,
    prior_metrics: MetricsRegistry,
}

impl Tenant {
    fn snapshot(&self, id: TenantId) -> TenantSnapshot {
        TenantSnapshot {
            id,
            pid: self.process.pid(),
            profile: self.profile_name.clone(),
            parent: self.parent,
            queued: self.queue.len(),
            checks: self.checks,
            allowed: self.allowed,
            denials: self.denials,
            cache_hits: self.cache_hits,
            latency_ns: self.latency_ns,
        }
    }
}

/// The multi-tenant admission service: a registry of tenant shards
/// multiplexed over one request loop.
///
/// # Example
///
/// ```
/// use draco_dracod::{DracoService, ServiceConfig};
/// use draco_profiles::{ProfileGenerator, ProfileKind};
/// use draco_syscalls::{ArgSet, SyscallId, SyscallRequest};
///
/// let read = SyscallRequest::new(0, SyscallId::new(0), ArgSet::from_slice(&[3, 0, 64]));
/// let mut gen = ProfileGenerator::new("app");
/// gen.observe(&read);
///
/// let mut svc = DracoService::new(ServiceConfig::default());
/// let tenant = svc.register(&gen.emit(ProfileKind::SyscallComplete))?;
/// svc.submit(tenant, read)?;
/// svc.submit(tenant, read)?;
/// let round = svc.drain();
/// assert_eq!(round.checks, 2);
/// assert_eq!(round.allowed, 2);
/// assert_eq!(round.cache_hits, 1, "second check hits the tenant's VAT");
/// # Ok::<(), draco_dracod::ServiceError>(())
/// ```
pub struct DracoService {
    cfg: ServiceConfig,
    tenants: BTreeMap<TenantId, Tenant>,
    /// Next tenant/process id; monotone, never reused.
    next_id: u32,
    audit: Arc<AuditRing>,
    window: MetricsWindow,
    epoch: Instant,
    latency_pool: Histogram,
    counters: ServiceCounters,
    /// Checker stats/metrics of retired tenants, folded in so service
    /// totals stay monotone across departures.
    retired_stats: CheckerStats,
    retired_metrics: MetricsRegistry,
    scratch_reqs: Vec<SyscallRequest>,
    scratch_out: Vec<CheckResult>,
}

impl fmt::Debug for DracoService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DracoService")
            .field("tenants", &self.tenants.len())
            .field("next_id", &self.next_id)
            .field("counters", &self.counters)
            .finish_non_exhaustive()
    }
}

impl DracoService {
    /// Creates an empty service.
    pub fn new(cfg: ServiceConfig) -> Self {
        let window_capacity = cfg.window_capacity.max(1);
        DracoService {
            audit: Arc::new(AuditRing::with_rate_limit(
                cfg.audit_capacity.max(1),
                cfg.audit_burst,
            )),
            window: MetricsWindow::with_capacity(window_capacity),
            epoch: Instant::now(),
            cfg,
            tenants: BTreeMap::new(),
            next_id: 1,
            latency_pool: Histogram::default(),
            counters: ServiceCounters::default(),
            retired_stats: CheckerStats::default(),
            retired_metrics: MetricsRegistry::default(),
            scratch_reqs: Vec::new(),
            scratch_out: Vec::new(),
        }
    }

    fn alloc_id(&mut self) -> TenantId {
        let id = TenantId(self.next_id);
        self.next_id += 1;
        id
    }

    fn spawn_process(&self, pid: ProcessId, profile: &ProfileSpec) -> Result<SharedDracoProcess, DracoError> {
        let process = if self.cfg.analyzed {
            let analysis =
                draco_profiles::analyze_profile(profile).map_err(DracoError::FilterCompile)?;
            SharedDracoProcess::spawn_analyzed_with_engine(pid, profile, &analysis, self.cfg.engine)?
        } else {
            SharedDracoProcess::spawn_with_engine(pid, profile, self.cfg.engine)?
        };
        process.enable_audit(Arc::clone(&self.audit));
        Ok(process)
    }

    fn install_tenant(
        &mut self,
        process: SharedDracoProcess,
        profile_name: String,
        parent: Option<TenantId>,
    ) -> TenantId {
        let id = self.alloc_id();
        let handle = process.spawn_thread();
        self.tenants.insert(
            id,
            Tenant {
                process,
                handle,
                queue: VecDeque::new(),
                profile_name,
                parent,
                latency_ns: Histogram::default(),
                checks: 0,
                allowed: 0,
                denials: 0,
                cache_hits: 0,
                prior_stats: CheckerStats::default(),
                prior_metrics: MetricsRegistry::default(),
            },
        );
        id
    }

    /// Registers a new tenant with the given profile installed.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Draco`] if the profile's filter (or its
    /// analysis, under [`ServiceConfig::analyzed`]) fails to compile. No
    /// id is consumed on failure.
    pub fn register(&mut self, profile: &ProfileSpec) -> Result<TenantId, ServiceError> {
        let pid = ProcessId(self.next_id);
        let process = self.spawn_process(pid, profile)?;
        let id = self.install_tenant(process, profile.name().to_owned(), None);
        self.counters.registered += 1;
        Ok(id)
    }

    /// Forks a tenant: the child is a new tenant (fresh never-reused
    /// pid) inheriting the parent's effective policy — profile, engine
    /// and analysis plan, shared without recompiling — with cold,
    /// unshared tables: fork shares no cached Draco state (paper
    /// §VII-B).
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::UnknownTenant`] for an unregistered
    /// parent.
    pub fn fork(&mut self, parent: TenantId) -> Result<TenantId, ServiceError> {
        let parent_tenant = self
            .tenants
            .get(&parent)
            .ok_or(ServiceError::UnknownTenant(parent))?;
        let pid = ProcessId(self.next_id);
        let child = parent_tenant.process.fork(pid);
        child.enable_audit(Arc::clone(&self.audit));
        let name = parent_tenant.profile_name.clone();
        let id = self.install_tenant(child, name, Some(parent));
        self.counters.forked += 1;
        Ok(id)
    }

    /// Execs a tenant: replaces its process with a fresh spawn of a new
    /// profile under the *same* tenant/process id (exec keeps the pid
    /// but resets every table — paper §VII-B). Counters and queued
    /// requests carry over; cached validations do not.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::UnknownTenant`] for an unregistered
    /// tenant, or [`ServiceError::Draco`] if the new profile fails to
    /// compile (the old process keeps serving).
    pub fn exec(&mut self, id: TenantId, profile: &ProfileSpec) -> Result<(), ServiceError> {
        let pid = self
            .tenants
            .get(&id)
            .ok_or(ServiceError::UnknownTenant(id))?
            .process
            .pid();
        // Spawn first: a compile failure must leave the tenant serving.
        let process = self.spawn_process(pid, profile)?;
        let tenant = self.tenants.get_mut(&id).expect("checked above");
        tenant.handle.sync_stats();
        tenant.prior_stats.accumulate(&tenant.process.stats());
        tenant.prior_metrics.merge(&tenant.process.metrics());
        tenant.handle = process.spawn_thread();
        tenant.process = process;
        tenant.profile_name = profile.name().to_owned();
        self.counters.execs += 1;
        Ok(())
    }

    /// Hot-reloads a tenant: attaches `extra` as an additional filter
    /// through the epoch protocol, vetted by the service's
    /// [`ReloadPolicy`]. On success every cached validation of that
    /// tenant (and only that tenant) is flushed; on refusal the old
    /// filter keeps serving and the tenant's caches stay intact.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::UnknownTenant`] for an unregistered
    /// tenant, [`DracoError::ReloadRejected`] (wrapped) when the gate
    /// refuses the candidate, or a compile error for the combined
    /// filter.
    pub fn reload(
        &mut self,
        id: TenantId,
        extra: &ProfileSpec,
    ) -> Result<ReloadDecision, ServiceError> {
        let policy = self.cfg.reload_policy;
        let tenant = self
            .tenants
            .get_mut(&id)
            .ok_or(ServiceError::UnknownTenant(id))?;
        match tenant.process.install_additional_with(extra, policy) {
            Ok(decision) => {
                tenant.profile_name = tenant.process.profile().name().to_owned();
                self.counters.reloads_permitted += 1;
                Ok(decision)
            }
            Err(e @ DracoError::ReloadRejected { .. }) => {
                self.counters.reloads_refused += 1;
                Err(ServiceError::Draco(e))
            }
            Err(e) => Err(ServiceError::Draco(e)),
        }
    }

    /// Queues one admission request for a tenant.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::UnknownTenant`] for an unregistered
    /// tenant.
    pub fn submit(&mut self, id: TenantId, req: SyscallRequest) -> Result<(), ServiceError> {
        self.tenants
            .get_mut(&id)
            .ok_or(ServiceError::UnknownTenant(id))?
            .queue
            .push_back(req);
        Ok(())
    }

    /// Queues a slice of requests for a tenant, in order.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::UnknownTenant`] for an unregistered
    /// tenant.
    pub fn submit_all(
        &mut self,
        id: TenantId,
        reqs: &[SyscallRequest],
    ) -> Result<(), ServiceError> {
        let tenant = self
            .tenants
            .get_mut(&id)
            .ok_or(ServiceError::UnknownTenant(id))?;
        tenant.queue.extend(reqs.iter().copied());
        Ok(())
    }

    /// Drains every tenant's queue through `check_batch`, then seals one
    /// metrics-window interval. See [`DracoService::drain_with`].
    pub fn drain(&mut self) -> DrainSummary {
        self.drain_with(|_, _, _| {})
    }

    /// Drains every tenant's queue, invoking `sink` with each decision
    /// in service order (tenants ascending; each tenant's requests in
    /// submission order). Tenants are walked in id order and popped in
    /// `batch`-sized passes, so one noisy tenant cannot starve the rest
    /// of a round. After the round, one interval is pushed into the
    /// metrics window.
    pub fn drain_with(
        &mut self,
        mut sink: impl FnMut(TenantId, &SyscallRequest, CheckResult),
    ) -> DrainSummary {
        let mut summary = DrainSummary::default();
        let batch = self.cfg.batch.max(1);
        let ids: Vec<TenantId> = self.tenants.keys().copied().collect();
        for id in ids {
            let tenant = self.tenants.get_mut(&id).expect("registry unchanged");
            if tenant.queue.is_empty() {
                continue;
            }
            summary.tenants_served += 1;
            while !tenant.queue.is_empty() {
                let take = batch.min(tenant.queue.len());
                self.scratch_reqs.clear();
                self.scratch_reqs.extend(tenant.queue.drain(..take));
                self.scratch_out.resize(take, CheckResult::KILLED);
                let start = Instant::now();
                tenant
                    .handle
                    .check_batch(&self.scratch_reqs, &mut self.scratch_out[..take]);
                let elapsed = start.elapsed().as_nanos() as u64;
                let per_req = elapsed / take as u64;
                tenant.latency_ns.record_n(per_req, take as u64);
                self.latency_pool.record_n(per_req, take as u64);
                summary.batches += 1;
                for (req, decision) in self.scratch_reqs.iter().zip(self.scratch_out.iter()) {
                    summary.checks += 1;
                    summary.allowed += u64::from(decision.action.permits());
                    summary.denials += u64::from(!decision.action.permits());
                    summary.cache_hits += u64::from(decision.path.is_cache_hit());
                    tenant.checks += 1;
                    tenant.allowed += u64::from(decision.action.permits());
                    tenant.denials += u64::from(!decision.action.permits());
                    tenant.cache_hits += u64::from(decision.path.is_cache_hit());
                    sink(id, req, *decision);
                }
            }
            // Fold the handle's session counters into the process
            // aggregate so `stats()`/`metrics()` are complete at round
            // boundaries.
            tenant.handle.sync_stats();
        }
        self.counters.drain_rounds += 1;
        self.counters.batches += summary.batches;
        self.counters.checks += summary.checks;
        self.counters.allowed += summary.allowed;
        self.counters.denials += summary.denials;
        self.counters.cache_hits += summary.cache_hits;
        let now_ns = self.epoch.elapsed().as_nanos() as u64;
        let merged = self.metrics();
        self.window.push(&merged, &self.latency_pool, now_ns);
        summary
    }

    /// Retires a tenant: removes it from the registry, folds its checker
    /// stats and metrics into the service totals, and discards anything
    /// still queued (counted in
    /// [`ServiceCounters::dropped_requests`]). The tenant's id and pid
    /// are never reused.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::UnknownTenant`] for an unregistered
    /// tenant.
    pub fn retire(&mut self, id: TenantId) -> Result<TenantSnapshot, ServiceError> {
        let mut tenant = self
            .tenants
            .remove(&id)
            .ok_or(ServiceError::UnknownTenant(id))?;
        tenant.handle.sync_stats();
        let snapshot = tenant.snapshot(id);
        self.retired_stats.accumulate(&tenant.prior_stats);
        self.retired_stats.accumulate(&tenant.process.stats());
        self.retired_metrics.merge(&tenant.prior_metrics);
        self.retired_metrics.merge(&tenant.process.metrics());
        self.counters.dropped_requests += tenant.queue.len() as u64;
        self.counters.retired += 1;
        Ok(snapshot)
    }

    /// Spawns an extra checking worker on a tenant's shared tables —
    /// external threads can admit syscalls concurrently with the
    /// service loop (paper §VI: all threads share the SPT/VAT).
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::UnknownTenant`] for an unregistered
    /// tenant.
    pub fn spawn_worker(&self, id: TenantId) -> Result<SharedThreadHandle, ServiceError> {
        self.tenants
            .get(&id)
            .map(|t| t.process.spawn_thread())
            .ok_or(ServiceError::UnknownTenant(id))
    }

    /// Live tenant count.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// True when no tenants are registered.
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// True when the tenant is registered.
    pub fn contains(&self, id: TenantId) -> bool {
        self.tenants.contains_key(&id)
    }

    /// Live tenant ids, ascending.
    pub fn tenant_ids(&self) -> Vec<TenantId> {
        self.tenants.keys().copied().collect()
    }

    /// The next id the allocator would hand out (monotone; ids below
    /// this are spent forever).
    pub fn next_allocation(&self) -> u32 {
        self.next_id
    }

    /// A snapshot of one live tenant.
    pub fn snapshot(&self, id: TenantId) -> Option<TenantSnapshot> {
        self.tenants.get(&id).map(|t| t.snapshot(id))
    }

    /// Snapshots of every live tenant, ascending by id.
    pub fn snapshots(&self) -> Vec<TenantSnapshot> {
        self.tenants.iter().map(|(id, t)| t.snapshot(*id)).collect()
    }

    /// One live tenant's accumulated checker stats (complete at round
    /// boundaries — `drain` syncs the service handle).
    pub fn tenant_stats(&self, id: TenantId) -> Option<CheckerStats> {
        self.tenants.get(&id).map(|t| {
            let mut stats = t.prior_stats;
            stats.accumulate(&t.process.stats());
            stats
        })
    }

    /// One live tenant's valid shared-SPT entry count (isolation probes:
    /// another tenant's traffic must never change this).
    pub fn spt_valid_count(&self, id: TenantId) -> Option<usize> {
        self.tenants.get(&id).map(|t| t.process.spt_valid_count())
    }

    /// Checker stats summed over every tenant, live and retired
    /// (complete at round boundaries).
    pub fn stats(&self) -> CheckerStats {
        let mut total = self.retired_stats;
        for tenant in self.tenants.values() {
            total.accumulate(&tenant.prior_stats);
            total.accumulate(&tenant.process.stats());
        }
        total
    }

    /// The merged observability registry over every tenant, live and
    /// retired (complete at round boundaries).
    pub fn metrics(&self) -> MetricsRegistry {
        let mut merged = self.retired_metrics;
        for tenant in self.tenants.values() {
            merged.merge(&tenant.prior_metrics);
            merged.merge(&tenant.process.metrics());
        }
        merged
    }

    /// The service-wide denial-audit ring (drain it to consume events;
    /// `refill` it if rate-limited).
    pub fn audit_ring(&self) -> &Arc<AuditRing> {
        &self.audit
    }

    /// The metrics window (one interval sealed per drain round).
    pub fn window(&self) -> &MetricsWindow {
        &self.window
    }

    /// Service-level counters.
    pub fn counters(&self) -> ServiceCounters {
        self.counters
    }

    /// The pooled per-request service latency across all tenants,
    /// nanoseconds.
    pub fn latency_pool(&self) -> &Histogram {
        &self.latency_pool
    }

    /// Total requests currently queued across tenants.
    pub fn queued_total(&self) -> usize {
        self.tenants.values().map(|t| t.queue.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use draco_bpf::SeccompAction;
    use draco_profiles::{ProfileGenerator, ProfileKind};
    use draco_syscalls::{ArgSet, SyscallId};

    fn req(nr: u16, args: &[u64]) -> SyscallRequest {
        SyscallRequest::new(0x1000, SyscallId::new(nr), ArgSet::from_slice(args))
    }

    /// A complete profile admitting read(3,*,64), read(5,*,128), getpid.
    fn base_profile(app: &str) -> ProfileSpec {
        let mut gen = ProfileGenerator::new(app);
        gen.observe(&req(0, &[3, 0xaaaa, 64]));
        gen.observe(&req(0, &[5, 0xbbbb, 128]));
        gen.observe(&req(39, &[]));
        gen.emit(ProfileKind::SyscallComplete)
    }

    /// A refinement of [`base_profile`]: only getpid remains allowed.
    fn tightened(app: &str) -> ProfileSpec {
        let mut gen = ProfileGenerator::new(app);
        gen.observe(&req(39, &[]));
        gen.emit(ProfileKind::SyscallComplete)
    }

    /// A relaxation of [`base_profile`]: an extra, never-observed
    /// syscall joins the whitelist.
    fn relaxed(app: &str) -> ProfileSpec {
        let mut gen = ProfileGenerator::new(app);
        gen.observe(&req(0, &[3, 0xaaaa, 64]));
        gen.observe(&req(0, &[5, 0xbbbb, 128]));
        gen.observe(&req(39, &[]));
        gen.observe(&req(41, &[2, 1, 6])); // socket: not in base
        gen.emit(ProfileKind::SyscallComplete)
    }

    #[test]
    fn decisions_match_the_profile_oracle() {
        let profile = base_profile("app");
        let mut svc = DracoService::new(ServiceConfig::default());
        let id = svc.register(&profile).unwrap();
        let stream = [
            req(0, &[3, 0x1, 64]),
            req(0, &[4, 0x1, 64]), // unobserved fd: denied
            req(39, &[]),
            req(0, &[3, 0x2, 64]),
            req(2, &[1, 2, 3]), // unobserved syscall: denied
        ];
        svc.submit_all(id, &stream).unwrap();
        let mut decisions = Vec::new();
        svc.drain_with(|_, _, d| decisions.push(d));
        for (r, d) in stream.iter().zip(&decisions) {
            assert_eq!(d.action, profile.evaluate(r), "{r:?}");
        }
        // The repeated read(3) pair is a cache hit the second time.
        assert!(decisions[3].path.is_cache_hit());
        let snap = svc.snapshot(id).unwrap();
        assert_eq!(snap.checks, 5);
        assert_eq!(snap.allowed, 3);
        assert_eq!(snap.denials, 2);
    }

    #[test]
    fn tenants_do_not_share_tables() {
        let mut svc = DracoService::new(ServiceConfig::default());
        let a = svc.register(&base_profile("a")).unwrap();
        let b = svc.register(&base_profile("b")).unwrap();
        // Warm tenant A only.
        svc.submit_all(a, &[req(0, &[3, 0x1, 64]), req(39, &[])]).unwrap();
        svc.drain();
        assert!(svc.spt_valid_count(a).unwrap() > 0);
        assert_eq!(
            svc.spt_valid_count(b).unwrap(),
            0,
            "B's SPT is untouched by A's traffic"
        );
        // B's first identical request misses: nothing leaked across.
        let mut first = None;
        svc.submit(b, req(0, &[3, 0x1, 64])).unwrap();
        svc.drain_with(|_, _, d| first = Some(d));
        assert!(!first.unwrap().path.is_cache_hit());
    }

    #[test]
    fn fork_children_are_cold_and_independent() {
        let mut svc = DracoService::new(ServiceConfig::default());
        let parent = svc.register(&base_profile("p")).unwrap();
        svc.submit(parent, req(0, &[3, 0x1, 64])).unwrap();
        svc.drain();
        let child = svc.fork(parent).unwrap();
        assert_ne!(child, parent);
        assert_eq!(svc.snapshot(child).unwrap().parent, Some(parent));
        assert_eq!(svc.spt_valid_count(child).unwrap(), 0, "cold tables");
        // The child decides like the parent's profile regardless.
        let mut d = None;
        svc.submit(child, req(0, &[3, 0x9, 64])).unwrap();
        svc.drain_with(|_, _, r| d = Some(r));
        assert_eq!(d.unwrap().action, SeccompAction::Allow);
    }

    #[test]
    fn exec_keeps_the_pid_but_resets_tables() {
        let mut svc = DracoService::new(ServiceConfig::default());
        let id = svc.register(&base_profile("app")).unwrap();
        let pid = svc.snapshot(id).unwrap().pid;
        svc.submit(id, req(0, &[3, 0x1, 64])).unwrap();
        svc.drain();
        assert!(svc.spt_valid_count(id).unwrap() > 0);
        svc.exec(id, &tightened("app2")).unwrap();
        let snap = svc.snapshot(id).unwrap();
        assert_eq!(snap.pid, pid, "exec keeps the pid");
        assert_eq!(svc.spt_valid_count(id).unwrap(), 0, "exec resets tables");
        // Decisions now follow the new profile.
        let mut d = None;
        svc.submit(id, req(0, &[3, 0x1, 64])).unwrap();
        svc.drain_with(|_, _, r| d = Some(r));
        assert!(!d.unwrap().action.permits(), "read no longer allowed");
        assert_eq!(svc.counters().execs, 1);
        // Stats from before the exec still count.
        assert!(svc.tenant_stats(id).unwrap().total() >= 2);
    }

    #[test]
    fn refused_reload_keeps_old_filter_and_cache() {
        let mut svc = DracoService::new(ServiceConfig::default());
        let id = svc.register(&base_profile("app")).unwrap();
        svc.submit(id, req(0, &[3, 0x1, 64])).unwrap();
        svc.drain();
        let err = svc.reload(id, &relaxed("app")).unwrap_err();
        assert!(
            matches!(err, ServiceError::Draco(DracoError::ReloadRejected { .. })),
            "{err}"
        );
        assert_eq!(svc.counters().reloads_refused, 1);
        assert_eq!(svc.counters().reloads_permitted, 0);
        // The cache was not flushed: the warmed pair still hits.
        let mut d = None;
        svc.submit(id, req(0, &[3, 0x1, 64])).unwrap();
        svc.drain_with(|_, _, r| d = Some(r));
        assert!(d.unwrap().path.is_cache_hit(), "no flush on refusal");
        let stats = svc.tenant_stats(id).unwrap();
        assert_eq!(stats.reloads_refused, 1);
        assert_eq!(stats.reloads_permitted, 0);
    }

    #[test]
    fn permitted_reload_flushes_and_tightens() {
        let mut svc = DracoService::new(ServiceConfig::default());
        let id = svc.register(&base_profile("app")).unwrap();
        svc.submit(id, req(0, &[3, 0x1, 64])).unwrap();
        svc.drain();
        svc.reload(id, &tightened("app")).unwrap();
        assert_eq!(svc.counters().reloads_permitted, 1);
        assert_eq!(svc.spt_valid_count(id).unwrap(), 0, "reload flushes");
        let mut decisions = Vec::new();
        svc.submit_all(id, &[req(0, &[3, 0x1, 64]), req(39, &[])])
            .unwrap();
        svc.drain_with(|_, _, r| decisions.push(r));
        assert!(!decisions[0].action.permits(), "read denied after tighten");
        assert!(decisions[1].action.permits(), "getpid survives");
    }

    #[test]
    fn ids_are_monotone_and_never_reused() {
        let mut svc = DracoService::new(ServiceConfig::default());
        let a = svc.register(&base_profile("a")).unwrap();
        let b = svc.register(&base_profile("b")).unwrap();
        assert!(b > a);
        svc.retire(a).unwrap();
        let c = svc.register(&base_profile("c")).unwrap();
        assert!(c > b, "retired ids are spent forever");
        assert!(!svc.contains(a));
        let pids: Vec<u32> = svc.snapshots().iter().map(|s| s.pid.0).collect();
        assert_eq!(pids, vec![b.0, c.0], "pid == tenant id, 1:1");
    }

    #[test]
    fn retire_folds_stats_and_drops_queue() {
        let mut svc = DracoService::new(ServiceConfig::default());
        let id = svc.register(&base_profile("app")).unwrap();
        svc.submit_all(id, &[req(0, &[3, 0x1, 64]), req(39, &[])]).unwrap();
        svc.drain();
        let before = svc.stats();
        svc.submit(id, req(39, &[])).unwrap(); // left queued
        let snap = svc.retire(id).unwrap();
        assert_eq!(snap.checks, 2);
        assert_eq!(svc.counters().dropped_requests, 1);
        assert!(svc.is_empty());
        let after = svc.stats();
        assert_eq!(after, before, "retirement loses no counters");
        assert!(after.total() >= 2);
    }

    #[test]
    fn denials_flow_into_the_shared_audit_ring() {
        let mut svc = DracoService::new(ServiceConfig::default());
        let a = svc.register(&base_profile("a")).unwrap();
        let b = svc.register(&base_profile("b")).unwrap();
        svc.submit(a, req(7, &[])).unwrap(); // denied
        svc.submit(b, req(8, &[])).unwrap(); // denied
        svc.submit(b, req(39, &[])).unwrap(); // allowed
        svc.drain();
        let mut events = Vec::new();
        svc.audit_ring().drain(&mut events);
        assert_eq!(events.len(), 2);
        let sources: Vec<u16> = events.iter().map(|e| e.source).collect();
        assert_eq!(sources, vec![a.0 as u16, b.0 as u16], "pid-tagged");
        let stats = svc.stats();
        assert_eq!(stats.denials, 2);
        assert_eq!(
            svc.audit_ring().events_published() + svc.audit_ring().events_dropped(),
            stats.denials,
            "every denial accounted"
        );
    }

    #[test]
    fn drain_seals_window_intervals() {
        let mut svc = DracoService::new(ServiceConfig::default());
        let id = svc.register(&base_profile("app")).unwrap();
        for _ in 0..3 {
            svc.submit(id, req(39, &[])).unwrap();
            svc.drain();
        }
        let dump = svc.window().dump();
        assert_eq!(dump.intervals_pushed, 3);
        let total: u64 = dump
            .intervals
            .iter()
            .map(|s| s.delta.checker.spt_hits + s.delta.checker.always_allow_hits
                + s.delta.checker.vat_hits + s.delta.checker.filter_runs)
            .sum();
        assert_eq!(total, 3, "window deltas cover every check");
    }

    #[test]
    fn unknown_tenant_errors_everywhere() {
        let mut svc = DracoService::new(ServiceConfig::default());
        let ghost = TenantId(99);
        assert!(matches!(
            svc.submit(ghost, req(0, &[])),
            Err(ServiceError::UnknownTenant(t)) if t == ghost
        ));
        assert!(svc.fork(ghost).is_err());
        assert!(svc.retire(ghost).is_err());
        assert!(svc.reload(ghost, &base_profile("x")).is_err());
        assert!(svc.exec(ghost, &base_profile("x")).is_err());
        assert!(svc.spawn_worker(ghost).is_err());
        assert_eq!(format!("{}", ServiceError::UnknownTenant(ghost)), "unknown tenant tenant:99");
    }

    #[test]
    fn analyzed_tenants_preload_proven_fast_paths() {
        let cfg = ServiceConfig {
            analyzed: true,
            ..ServiceConfig::default()
        };
        let mut svc = DracoService::new(cfg);
        let id = svc.register(&base_profile("app")).unwrap();
        assert!(svc.spt_valid_count(id).unwrap() > 0, "preloaded");
        let mut d = None;
        svc.submit(id, req(39, &[])).unwrap();
        svc.drain_with(|_, _, r| d = Some(r));
        assert!(d.unwrap().path.is_cache_hit(), "proven syscall hits cold");
    }
}
