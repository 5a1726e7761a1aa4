//! Thread-shared Draco state (paper §VI).
//!
//! Every thread of a process shares one SPT and one VAT: "all threads in
//! the process share the same filter" and the kernel "updates the VAT
//! with a lock while lookups can still proceed" (§VI). This module is the
//! software model of that sharing:
//!
//! * the **check hot path is lock-free** — an SPT read is one atomic
//!   word load, a VAT probe is two seqlocked cuckoo-slot reads
//!   ([`draco_cuckoo::ConcurrentTable`]); a reader never blocks and never
//!   observes a torn 48-byte key / hash pair;
//! * only the **miss path** — filter execution and the subsequent VAT
//!   insert — takes a lock, and it is per-table: updates to one syscall's
//!   table never stall lookups (or updates) on another's;
//! * lifecycle follows the paper: [`SharedDracoProcess::spawn_thread`]
//!   shares the tables, [`SharedDracoProcess::fork`] starts cold under
//!   the same policy, and [`SharedDracoProcess::install_additional`]
//!   atomically swaps the policy and flushes cached state without ever
//!   stalling the lock-free readers.
//!
//! # Soundness under concurrency
//!
//! The serial checker's argument (stateless profiles; only positive
//! verdicts are cached) carries over, with two concurrent hazards
//! discharged by protocol:
//!
//! * **Torn reads** are impossible by the seqlock argument (see
//!   `docs/concurrency.md`); a reader under sustained writer pressure
//!   falls back to a miss, which merely re-runs the filter.
//! * **Stale inserts** around [`SharedDracoProcess::install_additional`]
//!   are prevented by an epoch: a miss-path thread captures the epoch
//!   *before* running the filter and re-checks it *inside* the write
//!   critical section. `install_additional` bumps the epoch before it
//!   flushes, so a validation from the old policy either lands before
//!   the flush (and is wiped by it) or observes the bumped epoch and is
//!   dropped. In-flight checks may still *return* a verdict from the
//!   policy that was installed when they started — exactly the semantics
//!   of a kernel filter attach racing in-flight syscalls — but no stale
//!   verdict is ever cached.

use core::fmt;

#[cfg(loom)]
use loom::sync::{
    atomic::{AtomicBool, AtomicU64, Ordering},
    Arc, Mutex, RwLock,
};
#[cfg(not(loom))]
use std::sync::{
    atomic::{AtomicBool, AtomicU64, Ordering},
    Arc, Mutex, RwLock,
};

use std::sync::OnceLock;

use draco_bpf::SeccompAction;
use draco_cuckoo::{ConcurrentTable, InsertOutcome};
use draco_obs::{AuditRing, CuckooMetrics, MetricsRegistry, TraceScope, VatMetrics};
use draco_profiles::{ProfileAnalysis, ProfileSpec};
use draco_syscalls::{ArgBitmask, SyscallId, SyscallRequest, SyscallTable};

use crate::policy::Policy;
use crate::stats::Counters;
use crate::{
    BatchStats, CheckPath, CheckResult, CheckerStats, Decision, DracoError, EngineKind, ProcessId,
};

/// Low 48 bits of an SPT word: the Argument Bitmask.
const SPT_MASK_BITS: u64 = (1 << 48) - 1;
/// The syscall checks arguments (a VAT table exists for it).
const SPT_HAS_VAT: u64 = 1 << 48;
/// The entry is valid.
const SPT_VALID: u64 = 1 << 49;
/// The analyzer proved the syscall always-allowed.
const SPT_ALWAYS_ALLOW: u64 = 1 << 50;

/// A decoded shared-SPT entry.
#[derive(Clone, Copy, Debug)]
struct SptWord {
    mask: ArgBitmask,
    has_vat: bool,
    always_allow: bool,
}

/// The shared SPT: one atomic word per syscall. An entry packs the
/// 48-bit Argument Bitmask with the Valid / has-VAT / always-allow flags
/// into a single `u64`, so the hot-path read is one `Acquire` load — no
/// seqlock needed, a word can never tear.
///
/// The serial SPT's *Base* field (the VAT table index) is implicit here:
/// the shared VAT is a direct-mapped table directory indexed by raw
/// syscall number.
struct SharedSpt {
    words: Box<[AtomicU64]>,
}

impl SharedSpt {
    fn new(capacity: usize) -> Self {
        SharedSpt {
            words: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Lock-free entry read (one atomic load).
    fn load(&self, id: SyscallId) -> Option<SptWord> {
        let word = self.words.get(id.index())?.load(Ordering::Acquire);
        if word & SPT_VALID == 0 {
            return None;
        }
        Some(SptWord {
            mask: ArgBitmask::from_raw(word & SPT_MASK_BITS),
            has_vat: word & SPT_HAS_VAT != 0,
            always_allow: word & SPT_ALWAYS_ALLOW != 0,
        })
    }

    /// Marks `id` validated. Out-of-range IDs are ignored (they can never
    /// be validated; the check falls back to the filter, which denies).
    fn store(&self, id: SyscallId, mask: ArgBitmask, has_vat: bool, always_allow: bool) {
        if let Some(cell) = self.words.get(id.index()) {
            let mut word = SPT_VALID | mask.raw();
            if has_vat {
                word |= SPT_HAS_VAT;
            }
            if always_allow {
                word |= SPT_ALWAYS_ALLOW;
            }
            cell.store(word, Ordering::Release);
        }
    }

    fn invalidate_all(&self) {
        for cell in self.words.iter() {
            cell.store(0, Ordering::Release);
        }
    }

    fn valid_count(&self) -> usize {
        self.words
            .iter()
            .filter(|cell| cell.load(Ordering::Acquire) & SPT_VALID != 0)
            .count()
    }
}

/// The shared VAT: a direct-mapped directory of per-syscall concurrent
/// cuckoo tables, indexed by raw syscall number. A resolved table is
/// reached with one lock-free `OnceLock::get`; creation happens at most
/// once per syscall, on the miss path.
struct SharedVat {
    tables: Box<[OnceLock<ConcurrentTable>]>,
    min_capacity: usize,
    capacity_cap: Option<usize>,
}

impl SharedVat {
    fn new(capacity: usize, capacity_cap: Option<usize>) -> Self {
        SharedVat {
            tables: (0..capacity).map(|_| OnceLock::new()).collect(),
            min_capacity: crate::Vat::DEFAULT_MIN_CAPACITY,
            capacity_cap,
        }
    }

    /// Lock-free table resolution for the probe hot path.
    fn get(&self, id: SyscallId) -> Option<&ConcurrentTable> {
        self.tables.get(id.index())?.get()
    }

    /// Creates (or finds) the table for a syscall, over-provisioned to
    /// twice the expected argument sets (paper §VII-A), subject to the
    /// memory cap.
    fn ensure(&self, id: SyscallId, expected_sets: usize) -> Option<&ConcurrentTable> {
        let cell = self.tables.get(id.index())?;
        Some(cell.get_or_init(|| {
            let mut capacity = (expected_sets * 2).max(self.min_capacity);
            if let Some(cap) = self.capacity_cap {
                capacity = capacity.min(cap.max(2));
            }
            ConcurrentTable::with_capacity(capacity)
        }))
    }

    fn allocated(&self) -> impl Iterator<Item = &ConcurrentTable> {
        self.tables.iter().filter_map(|cell| cell.get())
    }

    /// Clears every allocated table, each under its own write lock —
    /// readers (and writers) of *other* syscalls are never stalled.
    fn clear_all(&self) {
        for table in self.allocated() {
            table.clear();
        }
    }

    fn table_count(&self) -> usize {
        self.allocated().count()
    }

    fn resident_sets(&self) -> usize {
        self.allocated().map(draco_cuckoo::ConcurrentTable::len).sum()
    }

    /// Packed-record footprint, costed like the serial VAT (48 value
    /// bytes + an 8-byte hash/metadata word per slot) so shared and
    /// per-thread runs report comparable numbers.
    fn footprint_bytes(&self) -> usize {
        const ENTRY_BYTES: usize = 48 + 8;
        self.allocated()
            .map(|t| t.capacity() * ENTRY_BYTES)
            .sum()
    }

    /// Writer-side counters aggregated across tables. Reader hits and
    /// misses live in each thread's [`CheckerStats`] (the lock-free read
    /// path owns no shared counters), so this section reports insertion
    /// traffic only.
    fn cuckoo_metrics(&self) -> CuckooMetrics {
        let mut merged = CuckooMetrics::default();
        for table in self.allocated() {
            let stats = table.stats();
            merged.insertions = merged.insertions.saturating_add(stats.insertions);
            merged.updates = merged.updates.saturating_add(stats.updates);
            merged.evictions = merged.evictions.saturating_add(stats.evictions);
            merged.relocations = merged.relocations.saturating_add(stats.relocations);
        }
        merged
    }
}

/// How [`SharedDracoProcess::install_additional_with`] vets a candidate
/// profile before swapping it in — the `dracod` hot-reload safety
/// primitive.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ReloadPolicy {
    /// Install unconditionally (the historical
    /// [`SharedDracoProcess::install_additional`] behavior). The
    /// intersection semantics still guarantee the *combined* policy
    /// never relaxes, but an extra profile that would relax the
    /// installed one on its own is silently neutered rather than
    /// flagged.
    #[default]
    Permissive,
    /// Run the relation-only reload gate
    /// ([`draco_profiles::refinement_gate`]) on candidate-vs-installed
    /// and refuse the reload unless the candidate is proven
    /// `Equivalent` or `Refines` — i.e. the operator's *intent* is a
    /// tightening, not just the intersection's arithmetic. The gate
    /// gives the same answer as a full `diff_profiles` but stops at the
    /// first unsafe syscall. A refusal surfaces as
    /// [`DracoError::ReloadRejected`] with that syscall and (when the
    /// search found one) a VM-verified witness, and counts in
    /// [`CheckerStats::reloads_refused`].
    RequireRefinement,
}

/// What an admitted [`SharedDracoProcess::install_additional_with`]
/// reload actually established.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReloadDecision {
    /// Installed without semantic vetting
    /// ([`ReloadPolicy::Permissive`]).
    Installed,
    /// Diffed and proven safe before installing; carries the proven
    /// relation (`Equivalent` or `Refines`).
    ProvenSafe(draco_bpf::semdiff::Relation),
}

/// The state every thread handle shares.
struct SharedState {
    pid: ProcessId,
    spt: SharedSpt,
    vat: SharedVat,
    /// The current policy. Read-locked briefly on the miss path (to
    /// clone the `Arc`); write-locked only by `install_additional`. A
    /// fork clones the `Arc` into the child.
    policy: RwLock<Arc<Policy>>,
    /// Serializes shared-SPT writes against each other and against the
    /// `install_additional` flush (VAT tables carry their own per-table
    /// locks).
    update: Mutex<()>,
    /// Bumped by every `install_additional`/`flush`; miss-path threads
    /// re-check it inside their write critical sections so a validation
    /// from a superseded policy is never cached.
    epoch: AtomicU64,
    alive: AtomicBool,
    /// Counters merged from finished (or synced) thread sessions.
    counters: Mutex<Counters>,
    /// Optional denial-audit sink. Installed (rarely) under the lock;
    /// each `spawn_thread` clones the `Arc` into the handle so the
    /// miss-path emission itself is lock-free.
    audit: Mutex<Option<Arc<AuditRing>>>,
}

/// Locks `mutex`, recovering the data if a panicking thread poisoned it
/// (every critical section here leaves its data consistent).
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl SharedState {
    fn lock_counters(&self) -> std::sync::MutexGuard<'_, Counters> {
        lock(&self.counters)
    }

    fn read_policy(&self) -> Arc<Policy> {
        self.policy
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Shared-SPT write under the update lock with the epoch re-check:
    /// a validation from a superseded policy is dropped. Returns whether
    /// the lock acquisition was contended.
    fn store_spt(
        &self,
        epoch: u64,
        id: SyscallId,
        mask: ArgBitmask,
        has_vat: bool,
        always_allow: bool,
    ) -> bool {
        let (guard, contended) = match self.update.try_lock() {
            Ok(guard) => (guard, false),
            Err(std::sync::TryLockError::Poisoned(poisoned)) => (poisoned.into_inner(), false),
            Err(std::sync::TryLockError::WouldBlock) => (lock(&self.update), true),
        };
        if self.epoch.load(Ordering::Acquire) == epoch {
            self.spt.store(id, mask, has_vat, always_allow);
        }
        drop(guard);
        contended
    }
}

/// A process whose SPT and VAT are shared by every thread spawned from
/// it (paper §VI). Cheap to clone handles from; the tables live exactly
/// as long as the last handle.
///
/// # Example
///
/// ```
/// use draco_core::{ProcessId, SharedDracoProcess};
/// use draco_profiles::docker_default;
/// use draco_syscalls::{ArgSet, SyscallId, SyscallRequest};
///
/// let process = SharedDracoProcess::spawn(ProcessId(1), &docker_default())?;
/// let mut t1 = process.spawn_thread();
/// let mut t2 = process.spawn_thread();
/// let read = SyscallRequest::new(0, SyscallId::new(0), ArgSet::from_slice(&[3, 0, 64]));
/// // Thread 1 validates through the filter…
/// assert!(!t1.check(&read).path.is_cache_hit());
/// // …and thread 2 hits the *shared* tables immediately.
/// assert!(t2.check(&read).path.is_cache_hit());
/// # Ok::<(), draco_core::DracoError>(())
/// ```
pub struct SharedDracoProcess {
    state: Arc<SharedState>,
}

impl SharedDracoProcess {
    /// Creates a shared process with the given profile installed.
    ///
    /// # Errors
    ///
    /// Returns [`DracoError`] if the profile's filter fails to compile.
    pub fn spawn(pid: ProcessId, profile: &ProfileSpec) -> Result<Self, DracoError> {
        Self::spawn_with_engine(pid, profile, EngineKind::Compiled)
    }

    /// Creates a shared process like [`SharedDracoProcess::spawn`] with an
    /// explicit miss-path filter engine (e.g. [`EngineKind::Dag`] for the
    /// specialized decision DAG).
    ///
    /// # Errors
    ///
    /// Returns [`DracoError`] if the profile's filter fails to compile.
    pub fn spawn_with_engine(
        pid: ProcessId,
        profile: &ProfileSpec,
        kind: EngineKind,
    ) -> Result<Self, DracoError> {
        let policy = Policy::build(profile.clone(), kind)?;
        Ok(Self::with_policy(pid, Arc::new(policy), None))
    }

    /// Creates a shared process with a precomputed filter-analysis plan
    /// installed and the SPT preloaded, like
    /// [`DracoProcess::spawn_analyzed`](crate::DracoProcess::spawn_analyzed).
    ///
    /// # Errors
    ///
    /// Returns [`DracoError`] if the profile's filter fails to compile.
    ///
    /// # Panics
    ///
    /// Panics if `analysis` was computed for a different profile.
    pub fn spawn_analyzed(
        pid: ProcessId,
        profile: &ProfileSpec,
        analysis: &ProfileAnalysis,
    ) -> Result<Self, DracoError> {
        Self::spawn_analyzed_with_engine(pid, profile, analysis, EngineKind::Compiled)
    }

    /// Like [`SharedDracoProcess::spawn_analyzed`] with an explicit
    /// miss-path filter engine.
    ///
    /// # Errors
    ///
    /// Returns [`DracoError`] if the profile's filter fails to compile.
    ///
    /// # Panics
    ///
    /// Panics if `analysis` was computed for a different profile.
    pub fn spawn_analyzed_with_engine(
        pid: ProcessId,
        profile: &ProfileSpec,
        analysis: &ProfileAnalysis,
        kind: EngineKind,
    ) -> Result<Self, DracoError> {
        let mut policy = Policy::build(profile.clone(), kind)?;
        policy.install_analysis(analysis);
        let process = Self::with_policy(pid, Arc::new(policy), None);
        process.preload();
        Ok(process)
    }

    /// Like [`SharedDracoProcess::spawn`], with every VAT table capped at
    /// `cap` entries (memory-pressure policy; evicted argument sets
    /// revalidate through the filter).
    ///
    /// # Errors
    ///
    /// Returns [`DracoError`] if the profile's filter fails to compile.
    pub fn spawn_capped(
        pid: ProcessId,
        profile: &ProfileSpec,
        cap: usize,
    ) -> Result<Self, DracoError> {
        let policy = Policy::build(profile.clone(), EngineKind::Compiled)?;
        Ok(Self::with_policy(pid, Arc::new(policy), Some(cap)))
    }

    /// A process with cold tables enforcing `policy`.
    fn with_policy(pid: ProcessId, policy: Arc<Policy>, capacity_cap: Option<usize>) -> Self {
        let capacity = SyscallTable::shared().capacity();
        SharedDracoProcess {
            state: Arc::new(SharedState {
                pid,
                spt: SharedSpt::new(capacity),
                vat: SharedVat::new(capacity, capacity_cap),
                policy: RwLock::new(policy),
                update: Mutex::new(()),
                epoch: AtomicU64::new(0),
                alive: AtomicBool::new(true),
                counters: Mutex::new(Counters::default()),
                audit: Mutex::new(None),
            }),
        }
    }

    /// The process ID.
    pub fn pid(&self) -> ProcessId {
        self.state.pid
    }

    /// Whether the process group is still running (any thread observing a
    /// `KillProcess`/`KillThread` verdict through
    /// [`SharedThreadHandle::syscall`] terminates it).
    pub fn is_alive(&self) -> bool {
        self.state.alive.load(Ordering::Acquire)
    }

    /// The installed profile (a clone — the live spec sits behind the
    /// policy lock).
    pub fn profile(&self) -> ProfileSpec {
        self.state.read_policy().profile.clone()
    }

    /// Whether an analysis plan is installed.
    pub fn has_analysis(&self) -> bool {
        self.state.read_policy().plan.is_some()
    }

    /// The flavor of the miss-path filter engine.
    pub fn engine_kind(&self) -> EngineKind {
        self.state.read_policy().filter.kind()
    }

    /// Attaches a denial-audit ring: every `Deny`/`Errno`/`Kill` verdict
    /// from any thread emits one bounded
    /// [`AuditEvent`](draco_obs::AuditEvent) tagged with this process's
    /// pid (truncated to 16 bits).
    ///
    /// Handles capture the ring at [`SharedDracoProcess::spawn_thread`]
    /// time, so call this *before* spawning the threads that should be
    /// audited; existing handles keep their previous (possibly absent)
    /// sink.
    pub fn enable_audit(&self, ring: Arc<AuditRing>) {
        *lock(&self.state.audit) = Some(ring);
    }

    /// Detaches the denial-audit ring for threads spawned afterwards.
    pub fn disable_audit(&self) {
        *lock(&self.state.audit) = None;
    }

    /// The installed denial-audit ring, if any.
    pub fn audit_ring(&self) -> Option<Arc<AuditRing>> {
        lock(&self.state.audit).clone()
    }

    /// Creates a checking handle that shares this process's SPT/VAT —
    /// the paper's thread spawn (§VI: new threads share the tables, so a
    /// pair validated by any thread is a hit for all).
    pub fn spawn_thread(&self) -> SharedThreadHandle {
        SharedThreadHandle {
            audit: self.audit_ring(),
            state: Arc::clone(&self.state),
            counters: Counters::default(),
        }
    }

    /// Forks the process: the child inherits the installed policy —
    /// profile, engine flavor and analysis plan, shared with the parent
    /// so nothing is recompiled — but starts with cold, *unshared*,
    /// un-preloaded tables (paper §VII-B, and the same semantics as
    /// [`crate::DracoProcess::fork`]: a forked address space shares
    /// nothing with the parent's cached validations). A VAT capacity cap
    /// ([`SharedDracoProcess::spawn_capped`]) is inherited.
    pub fn fork(&self, child_pid: ProcessId) -> SharedDracoProcess {
        SharedDracoProcess::with_policy(
            child_pid,
            self.state.read_policy(),
            self.state.vat.capacity_cap,
        )
    }

    /// Attaches an additional filter: the effective policy becomes the
    /// intersection (kernel most-restrictive combining), the analysis
    /// plan (if any) is re-derived for it, and every cached validation is
    /// flushed — *without stalling readers*: the policy swap is one
    /// `Arc` replacement, the SPT flush runs under the update lock only,
    /// and each VAT table is cleared under its own lock while lookups on
    /// other syscalls proceed untouched.
    ///
    /// # Errors
    ///
    /// Returns [`DracoError::FilterCompile`] if the combined filter (or
    /// its re-analysis) fails to compile.
    pub fn install_additional(&self, extra: &ProfileSpec) -> Result<(), DracoError> {
        self.install_additional_with(extra, ReloadPolicy::Permissive)
            .map(|_| ())
    }

    /// Like [`SharedDracoProcess::install_additional`], but vetting the
    /// candidate through a [`ReloadPolicy`] first. Under
    /// [`ReloadPolicy::RequireRefinement`] the candidate profile is
    /// gated against the installed one (both compiled to their real
    /// filter stacks) and refused unless proven `Equivalent` or
    /// `Refines`; either outcome is counted in
    /// [`CheckerStats::reloads_permitted`] /
    /// [`CheckerStats::reloads_refused`] and the process metrics.
    ///
    /// The gate runs inside the policy write critical section, so the
    /// relation is established against exactly the policy being
    /// replaced; lock-free readers are unaffected (only the miss path's
    /// brief read-lock contends).
    ///
    /// # Errors
    ///
    /// Returns [`DracoError::ReloadRejected`] if the gate refuses the
    /// candidate, or [`DracoError::FilterCompile`] if the combined
    /// filter (or its re-analysis) fails to compile.
    pub fn install_additional_with(
        &self,
        extra: &ProfileSpec,
        reload_policy: ReloadPolicy,
    ) -> Result<ReloadDecision, DracoError> {
        let state = &self.state;
        let decision;
        {
            let mut guard = state
                .policy
                .write()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            decision = match reload_policy {
                ReloadPolicy::Permissive => ReloadDecision::Installed,
                ReloadPolicy::RequireRefinement => {
                    match draco_profiles::refinement_gate(&guard.profile, extra)
                        .map_err(DracoError::FilterCompile)?
                    {
                        Ok(relation) => ReloadDecision::ProvenSafe(relation),
                        Err(diff) => {
                            drop(guard);
                            state.lock_counters().stats.reloads_refused += 1;
                            return Err(DracoError::ReloadRejected {
                                relation: diff.relation,
                                diff: Some(diff),
                            });
                        }
                    }
                }
            };
            // The intersection keeps the engine flavor and re-derives
            // the analysis plan, if any.
            *guard = Arc::new(guard.intersect(extra)?);
        }
        state.lock_counters().stats.reloads_permitted += 1;
        self.flush();
        Ok(decision)
    }

    /// Clears all cached state (the paper's one-shot clear, §VII-B),
    /// safely against concurrent checking threads: the epoch bump
    /// invalidates in-flight miss-path validations before the tables are
    /// wiped.
    pub fn flush(&self) {
        let state = &self.state;
        // Order matters: bump the epoch *first* so any in-flight
        // validation either lands before the wipe below (and is erased)
        // or sees the new epoch inside its critical section and aborts.
        state.epoch.fetch_add(1, Ordering::AcqRel);
        {
            let _update = lock(&state.update);
            state.spt.invalidate_all();
        }
        state.vat.clear_all();
    }

    /// Pre-populates the SPT (and VAT table directory) from the profile,
    /// as the OS does at filter-install time.
    pub fn preload(&self) {
        let state = &self.state;
        let epoch = state.epoch.load(Ordering::Acquire);
        let policy = state.read_policy();
        for (id, rule) in policy.profile.rules() {
            let (mask, sets) = policy.cache_plan(id, rule);
            if sets.is_none_or(|sets| state.vat.ensure(id, sets).is_some()) {
                state.store_spt(epoch, id, mask, sets.is_some(), policy.always_allows(id));
            }
        }
    }

    /// Accumulated counters from every finished (or synced) thread
    /// session. Live handles hold their unflushed traffic locally — call
    /// [`SharedThreadHandle::sync_stats`] (or drop the handle) first for
    /// a complete total.
    pub fn stats(&self) -> CheckerStats {
        self.state.lock_counters().stats
    }

    /// Number of valid shared-SPT entries.
    pub fn spt_valid_count(&self) -> usize {
        self.state.spt.valid_count()
    }

    /// This process's observability snapshot: the `checker` section from
    /// the merged thread sessions, the `cuckoo` section from writer-side
    /// table counters (reader traffic is thread-local by design), and
    /// the `vat` occupancy gauges.
    pub fn metrics(&self) -> MetricsRegistry {
        let policy = self.state.read_policy();
        MetricsRegistry {
            checker: self.state.lock_counters().metrics(policy.plan.as_ref()),
            cuckoo: self.state.vat.cuckoo_metrics(),
            vat: VatMetrics {
                tables: self.state.vat.table_count() as u64,
                resident_sets: self.state.vat.resident_sets() as u64,
                footprint_bytes: self.state.vat.footprint_bytes() as u64,
            },
            ..MetricsRegistry::default()
        }
    }
}

impl fmt::Debug for SharedDracoProcess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedDracoProcess")
            .field("pid", &self.state.pid)
            .field("spt_valid", &self.state.spt.valid_count())
            .field("vat_tables", &self.state.vat.table_count())
            .finish()
    }
}

impl fmt::Display for SharedDracoProcess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] shared",
            self.state.pid,
            self.state.read_policy().profile.name()
        )
    }
}

/// One thread's checking session against a [`SharedDracoProcess`].
///
/// The handle owns its counters — the lock-free hot path updates plain
/// thread-local counters, never a shared atomic — and merges them into
/// the process total on [`SharedThreadHandle::sync_stats`] or drop.
pub struct SharedThreadHandle {
    state: Arc<SharedState>,
    /// Captured from the process at spawn time so the deny emission
    /// never takes the process-level lock.
    audit: Option<Arc<AuditRing>>,
    counters: Counters,
}

impl SharedThreadHandle {
    /// Checks one system call against the shared tables (paper Fig. 4,
    /// multi-threaded §VI variant). The hit path takes no lock: one
    /// atomic SPT load, then (for argument-checked syscalls) a seqlocked
    /// two-probe VAT lookup.
    pub fn check(&mut self, req: &SyscallRequest) -> CheckResult {
        if let Some(word) = self.state.spt.load(req.id) {
            if !word.has_vat {
                self.counters.spt_hit(word.always_allow);
                return CheckResult {
                    action: SeccompAction::Allow,
                    path: CheckPath::SptHit,
                };
            }
            if let Some(table) = self.state.vat.get(req.id) {
                let key = word.mask.select_bytes(&req.args);
                let probe = table.probe(key.as_slice());
                self.counters.stats.seqlock_retries += probe.retries;
                if probe.hit.is_some() {
                    self.counters.vat_hit();
                    return CheckResult {
                        action: SeccompAction::Allow,
                        path: CheckPath::VatHit,
                    };
                }
            }
        }
        self.check_miss(req)
    }

    /// Issues one system call: like [`SharedThreadHandle::check`] but
    /// honouring process-group liveness — a `KillProcess`/`KillThread`
    /// verdict from *any* thread marks the whole group dead (threads
    /// share their fate, paper §VI).
    pub fn syscall(&mut self, req: &SyscallRequest) -> CheckResult {
        if !self.state.alive.load(Ordering::Acquire) {
            return CheckResult::KILLED;
        }
        let result = self.check(req);
        if result.kills() {
            self.state.alive.store(false, Ordering::Release);
        }
        result
    }

    /// Checks a whole batch, writing one decision per request: an
    /// in-order loop over [`SharedThreadHandle::check`], so it produces
    /// exactly the loop's decisions and [`CheckerStats`], and under
    /// concurrent writers exactly what some interleaving of scalar
    /// checks could. It counts `batches`, `batched_checks` and the batch
    /// size; `prefetch_issued` and `miss_dedup_hits` stay zero. (A
    /// staged pipeline over the shared tables cost more per check than
    /// this loop — `docs/batching.md` has the measurement.)
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != reqs.len()`.
    pub fn check_batch(&mut self, reqs: &[SyscallRequest], out: &mut [CheckResult]) {
        self.check_batch_segment(reqs, out, false);
    }

    /// Issues a whole batch of system calls: like
    /// [`SharedThreadHandle::syscall`] per slot — a kill verdict from any
    /// request marks the whole group dead, and every later slot reports
    /// the dead-group verdict without reaching the tables.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != reqs.len()`.
    pub fn syscall_batch(&mut self, reqs: &[SyscallRequest], out: &mut [Decision]) {
        assert_eq!(reqs.len(), out.len(), "one decision slot per request");
        let mut start = 0;
        while start < reqs.len() {
            if !self.state.alive.load(Ordering::Acquire) {
                out[start..].fill(CheckResult::KILLED);
                return;
            }
            start += self.check_batch_segment(&reqs[start..], &mut out[start..], true);
            if out[start - 1].kills() {
                self.state.alive.store(false, Ordering::Release);
            }
        }
    }

    /// The batch loop. With `stop_on_kill` it returns right after
    /// writing a kill verdict; returns how many decisions were written.
    fn check_batch_segment(
        &mut self,
        reqs: &[SyscallRequest],
        out: &mut [CheckResult],
        stop_on_kill: bool,
    ) -> usize {
        assert_eq!(reqs.len(), out.len(), "one decision slot per request");
        if reqs.is_empty() {
            return 0;
        }
        self.counters.record_batch(reqs.len());
        for (i, (req, slot)) in reqs.iter().zip(out.iter_mut()).enumerate() {
            *slot = self.check(req);
            if stop_on_kill && slot.kills() {
                return i + 1;
            }
        }
        reqs.len()
    }

    /// The slow path: run the filter under the policy current *now*, and
    /// cache a permit — unless the policy epoch moved underneath us.
    fn check_miss(&mut self, req: &SyscallRequest) -> CheckResult {
        // Epoch before policy: if an install lands between these two
        // loads we run the *new* filter tagged with the *old* epoch, so
        // the validation is conservatively dropped at insert time.
        let epoch = self.state.epoch.load(Ordering::Acquire);
        let policy = self.state.read_policy();
        let audit = self
            .audit
            .as_deref()
            .map(|ring| (ring, self.state.pid.0 as u16));
        let result = policy.run_filter(req, &mut self.counters, audit, &mut TraceScope::inactive());
        if result.action.permits() {
            self.record_validation(req, &policy, epoch);
        }
        result
    }

    /// Updates the shared SPT/VAT after a successful filter run. Every
    /// write re-checks the epoch inside its critical section; a stale
    /// validation (policy swapped since the filter ran) is dropped.
    fn record_validation(&mut self, req: &SyscallRequest, policy: &Policy, epoch: u64) {
        let Some(rule) = policy.profile.rule(req.id) else {
            return;
        };
        let (mask, sets) = policy.cache_plan(req.id, rule);
        if let Some(sets) = sets {
            let Some(table) = self.state.vat.ensure(req.id, sets) else {
                return;
            };
            let key = mask.select_bytes(&req.args);
            let mut guard = table.write();
            if guard.contended() {
                self.counters.stats.vat_lock_waits += 1;
            }
            if self.state.epoch.load(Ordering::Acquire) != epoch {
                return;
            }
            let outcome = guard.insert(key.as_slice(), mask.masked(&req.args).as_array());
            drop(guard);
            match outcome {
                // The key was already resident: another thread
                // validated the same argument set while our filter
                // ran (the refreshed value is bit-identical).
                InsertOutcome::Updated => self.counters.stats.insert_races_lost += 1,
                InsertOutcome::Inserted | InsertOutcome::Evicted => {
                    self.counters.stats.vat_inserts += 1;
                }
            }
        }
        let always_allow = policy.always_allows(req.id);
        if self
            .state
            .store_spt(epoch, req.id, mask, sets.is_some(), always_allow)
        {
            self.counters.stats.vat_lock_waits += 1;
        }
    }

    /// This thread's local counters (not yet merged into the process).
    pub const fn stats(&self) -> CheckerStats {
        self.counters.stats
    }

    /// This thread's local batch-path counters (not yet merged into the
    /// process).
    pub const fn batch_stats(&self) -> BatchStats {
        self.counters.batch
    }

    /// Merges this thread's counters into the process total and resets
    /// the local ones. Called automatically on drop.
    pub fn sync_stats(&mut self) {
        let counters = core::mem::take(&mut self.counters);
        self.state.lock_counters().accumulate(&counters);
    }
}

impl Drop for SharedThreadHandle {
    fn drop(&mut self) {
        self.sync_stats();
    }
}

impl fmt::Debug for SharedThreadHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedThreadHandle")
            .field("pid", &self.state.pid)
            .field("stats", &self.counters.stats)
            .finish()
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use draco_profiles::{
        analyze_profile, docker_default, gvisor_default, ProfileGenerator, ProfileKind,
    };
    use draco_syscalls::ArgSet;

    fn req(nr: u16, args: &[u64]) -> SyscallRequest {
        SyscallRequest::new(0x1000, SyscallId::new(nr), ArgSet::from_slice(args))
    }

    #[test]
    fn dag_engine_shared_process_matches_compiled() {
        let profile = gvisor_default();
        let dag = SharedDracoProcess::spawn_with_engine(
            ProcessId(1),
            &profile,
            crate::EngineKind::Dag,
        )
        .unwrap();
        assert_eq!(dag.engine_kind(), crate::EngineKind::Dag);
        let compiled = SharedDracoProcess::spawn(ProcessId(2), &profile).unwrap();
        let mut td = dag.spawn_thread();
        let mut tc = compiled.spawn_thread();
        for nr in 0u16..256 {
            for args in [[0u64, 0, 0], [0xffff_ffff, 0, 0], [3, 0, 64]] {
                let r = req(nr, &args);
                assert_eq!(td.check(&r).action, tc.check(&r).action, "{r}");
            }
        }
        // Engine flavor survives a policy swap and a fork.
        dag.install_additional(&profile).unwrap();
        assert_eq!(dag.engine_kind(), crate::EngineKind::Dag);
        let child = dag.fork(ProcessId(3));
        assert_eq!(child.engine_kind(), crate::EngineKind::Dag);
    }

    #[test]
    fn threads_share_validations() {
        let process = SharedDracoProcess::spawn(ProcessId(1), &docker_default()).unwrap();
        let mut t1 = process.spawn_thread();
        let mut t2 = process.spawn_thread();
        // t1 validates an argument-checked syscall through the filter…
        let r = t1.check(&req(135, &[0xffff_ffff, 0, 0]));
        assert!(matches!(r.path, CheckPath::FilterRun { .. }));
        assert!(r.action.permits());
        // …and t2's very first encounter is a VAT hit on the shared table.
        let r = t2.check(&req(135, &[0xffff_ffff, 0, 0]));
        assert_eq!(r.path, CheckPath::VatHit);
        // Same for an ID-only syscall via the shared SPT.
        assert!(matches!(
            t1.check(&req(0, &[3, 0, 100])).path,
            CheckPath::FilterRun { .. }
        ));
        assert_eq!(t2.check(&req(0, &[3, 0, 100])).path, CheckPath::SptHit);
    }

    #[test]
    fn decisions_match_the_serial_checker() {
        let profile = docker_default();
        let process = SharedDracoProcess::spawn(ProcessId(1), &profile).unwrap();
        let mut shared = process.spawn_thread();
        let mut serial = crate::DracoChecker::from_profile(&profile).unwrap();
        let reqs = [
            req(0, &[3, 0, 100]),
            req(135, &[0xffff_ffff, 0, 0]),
            req(135, &[0x1234, 0, 0]),
            req(135, &[0xffff_ffff, 0, 0]),
            req(101, &[0, 0, 0]),
            req(999, &[0, 0, 0]),
            req(0, &[3, 0, 100]),
        ];
        for r in &reqs {
            let a = shared.check(r);
            let b = serial.check(r);
            assert_eq!(a.action, b.action, "{r}");
            assert_eq!(a.path, b.path, "single-threaded paths agree, {r}");
        }
        shared.sync_stats();
        let stats = process.stats();
        assert_eq!(stats.spt_hits, serial.stats().spt_hits);
        assert_eq!(stats.vat_hits, serial.stats().vat_hits);
        assert_eq!(stats.filter_runs, serial.stats().filter_runs);
        assert_eq!(stats.filter_insns, serial.stats().filter_insns);
        assert_eq!(stats.denials, serial.stats().denials);
        assert_eq!(stats.vat_inserts, serial.stats().vat_inserts);
        assert_eq!(stats.seqlock_retries, 0, "no concurrent writers here");
        assert_eq!(stats.insert_races_lost, 0);
    }

    #[test]
    fn spawn_analyzed_preloads_proven_fast_paths() {
        let profile = gvisor_default();
        let analysis = analyze_profile(&profile).unwrap();
        let process =
            SharedDracoProcess::spawn_analyzed(ProcessId(3), &profile, &analysis).unwrap();
        assert!(process.has_analysis());
        let mut t = process.spawn_thread();
        let r = t.check(&req(39, &[]));
        assert!(r.path.is_cache_hit(), "preloaded proven syscall");
        assert!(t.stats().always_allow_hits > 0);
        drop(t);
        let m = process.metrics();
        assert!(m.checker.always_allow_hits > 0);
        assert!(m.checker.masks_derived_match > 0 || m.checker.masks_overridden == 0);
    }

    #[test]
    fn require_refinement_rejects_a_relaxing_profile() {
        use draco_profiles::{ArgPolicy, RuleSource, SyscallRule};
        let installed = draco_profiles::firecracker();
        let process = SharedDracoProcess::spawn(ProcessId(7), &installed).unwrap();
        // Candidate allows everything firecracker does *plus* one more
        // syscall: a relaxation of the operator's intent, even though
        // the intersection arithmetic would silently neuter it.
        let mut candidate = installed.clone();
        candidate.allow(
            SyscallId::new(333),
            SyscallRule {
                args: ArgPolicy::AnyArgs,
                source: RuleSource::Application,
            },
        );
        let err = process
            .install_additional_with(&candidate, crate::ReloadPolicy::RequireRefinement)
            .unwrap_err();
        match err {
            crate::DracoError::ReloadRejected { relation, diff } => {
                assert_eq!(relation, draco_bpf::semdiff::Relation::Relaxes);
                let diff = diff.expect("offending syscall identified");
                assert_eq!(diff.nr, 333);
                // The witness was VM-verified before it was reported.
                assert!(diff.witness.is_some());
            }
            other => panic!("wrong error: {other}"),
        }
        // Refusal left the installed policy untouched…
        assert_eq!(
            process.profile().allowed_syscall_count(),
            installed.allowed_syscall_count()
        );
        // …and is visible in the stats and the obs snapshot.
        assert_eq!(process.stats().reloads_refused, 1);
        assert_eq!(process.stats().reloads_permitted, 0);
        assert_eq!(process.metrics().checker.reloads_refused, 1);
        let expo = draco_obs::render_prometheus(&process.metrics());
        assert!(expo.contains("draco_checker_reloads_refused_total 1"), "{expo}");
    }

    #[test]
    fn require_refinement_permits_a_tightening_profile() {
        let installed = draco_profiles::firecracker();
        let process = SharedDracoProcess::spawn(ProcessId(8), &installed).unwrap();
        // Candidate drops one rule: a strict tightening.
        let mut candidate = installed.clone();
        let dropped = installed.rules().next().unwrap().0;
        assert!(candidate.deny(dropped));
        let decision = process
            .install_additional_with(&candidate, crate::ReloadPolicy::RequireRefinement)
            .unwrap();
        assert_eq!(
            decision,
            crate::ReloadDecision::ProvenSafe(draco_bpf::semdiff::Relation::Refines)
        );
        // The install actually took effect (intersection drops the rule).
        let mut t = process.spawn_thread();
        let r = t.check(&req(dropped.as_u16(), &[0, 0, 0]));
        assert!(!r.action.permits(), "dropped syscall now denied");
        drop(t);
        assert_eq!(process.stats().reloads_permitted, 1);
        assert_eq!(process.stats().reloads_refused, 0);
        assert_eq!(process.metrics().checker.reloads_permitted, 1);
    }

    #[test]
    fn permissive_reload_counts_as_permitted() {
        let installed = draco_profiles::firecracker();
        let process = SharedDracoProcess::spawn(ProcessId(9), &installed).unwrap();
        let decision = process
            .install_additional_with(&installed, crate::ReloadPolicy::Permissive)
            .unwrap();
        assert_eq!(decision, crate::ReloadDecision::Installed);
        // Equivalent candidates also pass the strict gate.
        let decision = process
            .install_additional_with(&installed, crate::ReloadPolicy::RequireRefinement)
            .unwrap();
        assert_eq!(
            decision,
            crate::ReloadDecision::ProvenSafe(draco_bpf::semdiff::Relation::Equivalent)
        );
        assert_eq!(process.stats().reloads_permitted, 2);
    }

    #[test]
    fn equivalent_reloads_keep_the_profile_name() {
        let installed = draco_profiles::firecracker();
        let process = SharedDracoProcess::spawn(ProcessId(10), &installed).unwrap();
        for _ in 0..16 {
            let decision = process
                .install_additional_with(&installed, crate::ReloadPolicy::RequireRefinement)
                .unwrap();
            assert_eq!(
                decision,
                crate::ReloadDecision::ProvenSafe(draco_bpf::semdiff::Relation::Equivalent)
            );
        }
        assert_eq!(process.profile().name(), installed.name());
        assert_eq!(process.stats().reloads_permitted, 16);
    }

    #[test]
    fn audit_ring_captures_every_thread_denial() {
        let process = SharedDracoProcess::spawn(ProcessId(42), &docker_default()).unwrap();
        let ring = Arc::new(AuditRing::with_capacity(64));
        process.enable_audit(Arc::clone(&ring));
        let mut t1 = process.spawn_thread();
        let mut t2 = process.spawn_thread();

        t1.check(&req(0, &[3, 0, 100])); // allowed: no event
        t1.check(&req(999, &[0, 0, 0])); // denied
        t2.check(&req(998, &[0, 0, 0])); // denied
        t2.check(&req(999, &[0, 0, 0])); // denied again (denials never cache)
        drop(t1);
        drop(t2);

        let denials = process.stats().denials;
        assert_eq!(denials, 3);
        assert_eq!(ring.events_published() + ring.events_dropped(), denials);
        let mut events = Vec::new();
        ring.drain(&mut events);
        assert_eq!(events.len(), 3);
        for event in &events {
            assert_eq!(event.source, 42);
            assert_eq!(event.engine, draco_obs::AuditEngine::Compiled);
        }
    }

    #[test]
    fn audit_attaches_only_to_threads_spawned_after_enable() {
        let process = SharedDracoProcess::spawn(ProcessId(5), &docker_default()).unwrap();
        let mut before = process.spawn_thread();
        let ring = Arc::new(AuditRing::with_capacity(8));
        process.enable_audit(Arc::clone(&ring));
        assert!(process.audit_ring().is_some());
        let mut after = process.spawn_thread();

        before.check(&req(999, &[0, 0, 0]));
        assert!(ring.is_empty(), "pre-enable handles keep no sink");
        after.check(&req(999, &[0, 0, 0]));
        assert_eq!(ring.len(), 1);

        process.disable_audit();
        assert!(process.audit_ring().is_none());
        let mut detached = process.spawn_thread();
        detached.check(&req(998, &[0, 0, 0]));
        assert_eq!(ring.len(), 1, "post-disable handles emit nothing");
    }

    #[test]
    #[should_panic(expected = "analysis plan must match")]
    fn foreign_analysis_is_rejected() {
        let analysis = analyze_profile(&gvisor_default()).unwrap();
        let _ = SharedDracoProcess::spawn_analyzed(ProcessId(1), &docker_default(), &analysis);
    }

    #[test]
    fn kill_verdict_terminates_the_whole_group() {
        let process = SharedDracoProcess::spawn(ProcessId(7), &gvisor_default()).unwrap();
        let mut t1 = process.spawn_thread();
        let mut t2 = process.spawn_thread();
        assert!(process.is_alive());
        let r = t1.syscall(&req(101, &[0, 0])); // ptrace: kill
        assert!(!r.action.permits());
        assert!(!process.is_alive());
        // Every thread of the group short-circuits now.
        let r2 = t2.syscall(&req(39, &[]));
        assert!(!r2.action.permits());
        assert!(matches!(r2.path, CheckPath::FilterRun { insns: 0 }));
        // check() still reports verdicts (the differential oracle needs
        // order-independent decisions).
        assert!(t2.check(&req(39, &[])).action.permits());
    }

    #[test]
    fn fork_starts_cold_with_same_profile() {
        let process = SharedDracoProcess::spawn(ProcessId(1), &gvisor_default()).unwrap();
        let mut t = process.spawn_thread();
        t.check(&req(39, &[]));
        assert_eq!(t.check(&req(39, &[])).path, CheckPath::SptHit);
        let child = process.fork(ProcessId(2));
        assert_eq!(child.pid(), ProcessId(2));
        let mut ct = child.spawn_thread();
        assert!(
            !ct.check(&req(39, &[])).path.is_cache_hit(),
            "child tables are cold"
        );
    }

    #[test]
    fn fork_shares_the_policy_engine_and_analysis_plan() {
        let profile = docker_default();
        let analysis = analyze_profile(&profile).unwrap();
        let parent = SharedDracoProcess::spawn_analyzed_with_engine(
            ProcessId(1),
            &profile,
            &analysis,
            crate::EngineKind::Dag,
        )
        .unwrap();
        let child = parent.fork(ProcessId(2));
        assert_eq!(child.engine_kind(), crate::EngineKind::Dag);
        assert!(child.has_analysis(), "the analysis plan survives fork");
        assert!(
            Arc::ptr_eq(&parent.state.read_policy(), &child.state.read_policy()),
            "the child shares the parent's compiled policy"
        );
        assert_eq!(child.spt_valid_count(), 0, "the child is not preloaded");
        let mut tp = parent.spawn_thread();
        let mut tc = child.spawn_thread();
        let trace = [
            req(0, &[3, 0, 100]),
            req(135, &[0xffff_ffff, 0, 0]),
            req(135, &[0x1234, 0, 0]),
            req(101, &[0, 0, 0]),
            req(999, &[0, 0, 0]),
        ];
        // The parent is preloaded and the child cold, so only the
        // actions agree on the first pass; once both have seen the
        // trace, the paths agree too.
        for r in &trace {
            assert_eq!(tc.check(r).action, tp.check(r).action, "{r}");
        }
        for r in &trace {
            assert_eq!(tc.check(r), tp.check(r), "{r}");
        }
        assert!(
            tc.stats().always_allow_hits > 0,
            "the child uses the proven fast path"
        );
    }

    #[test]
    fn install_additional_restricts_and_flushes() {
        let mut gen = ProfileGenerator::new("app");
        gen.observe(&req(0, &[3, 0, 64]));
        gen.observe(&req(1, &[4, 0, 64]));
        let base = gen.emit(ProfileKind::SyscallNoargs);
        let process = SharedDracoProcess::spawn(ProcessId(1), &base).unwrap();
        let mut t = process.spawn_thread();
        assert!(t.check(&req(0, &[3, 0, 64])).action.permits());
        assert!(t.check(&req(1, &[4, 0, 64])).action.permits());
        assert!(t.check(&req(1, &[4, 0, 64])).path.is_cache_hit());

        let mut gen2 = ProfileGenerator::new("tighter");
        gen2.observe(&req(0, &[3, 0, 64]));
        let extra = gen2.emit(ProfileKind::SyscallNoargs);
        process.install_additional(&extra).unwrap();

        // write is now denied — including the previously cached pair.
        assert!(!t.check(&req(1, &[4, 0, 64])).action.permits());
        // read revalidates from cold, then caches again.
        let r = t.check(&req(0, &[3, 0, 64]));
        assert!(r.action.permits());
        assert!(!r.path.is_cache_hit(), "tables were flushed");
        assert!(t.check(&req(0, &[3, 0, 64])).path.is_cache_hit());
        assert!(process.profile().name().contains('+'));
    }

    #[test]
    fn install_additional_matches_intersection_oracle() {
        let base = docker_default();
        let mut gen = ProfileGenerator::new("app");
        for nr in [0u16, 1, 3, 135] {
            gen.observe(&req(nr, &[0xffff_ffff, 0, 0]));
        }
        let extra = gen.emit(ProfileKind::SyscallComplete);
        let oracle = base.intersect(&extra);
        let process = SharedDracoProcess::spawn(ProcessId(1), &base).unwrap();
        process.install_additional(&extra).unwrap();
        let mut t = process.spawn_thread();
        for nr in [0u16, 1, 3, 57, 135, 200] {
            for v in [0u64, 0xffff_ffff] {
                let r = req(nr, &[v, 0, 0]);
                assert_eq!(
                    t.check(&r).action.permits(),
                    oracle.evaluate(&r).permits(),
                    "{r}"
                );
            }
        }
    }

    #[test]
    fn concurrent_threads_agree_with_the_profile_oracle() {
        let profile = docker_default();
        let process = SharedDracoProcess::spawn(ProcessId(1), &profile).unwrap();
        let oracle = profile.clone();
        std::thread::scope(|scope| {
            for worker in 0..4u64 {
                let mut t = process.spawn_thread();
                let oracle = &oracle;
                scope.spawn(move || {
                    for i in 0..500u64 {
                        let nr = [(0u16), 1, 135, 101, 999][(i.wrapping_mul(worker + 1) % 5) as usize];
                        let r = req(nr, &[i % 4, 0, 0]);
                        assert_eq!(
                            t.check(&r).action.permits(),
                            oracle.evaluate(&r).permits(),
                            "{r}"
                        );
                    }
                });
            }
        });
        let stats = process.stats();
        assert_eq!(stats.total(), 2000, "every check accounted for");
        // Two of the five syscalls in the mix are always denied (denials
        // are never cached), so the ceiling is well under 1.0 — but the
        // allowed majority must be soaked by the shared tables.
        assert!(stats.cache_hit_rate() > 0.3, "shared tables soak re-hits");
    }

    #[test]
    fn flush_drops_in_flight_validation_effects() {
        let process = SharedDracoProcess::spawn(ProcessId(1), &docker_default()).unwrap();
        let mut t = process.spawn_thread();
        t.check(&req(135, &[0xffff_ffff, 0, 0]));
        assert!(process.metrics().vat.resident_sets > 0);
        process.flush();
        assert_eq!(process.metrics().vat.resident_sets, 0);
        assert_eq!(process.spt_valid_count(), 0);
        assert!(
            !t.check(&req(135, &[0xffff_ffff, 0, 0])).path.is_cache_hit(),
            "flushed"
        );
    }

    #[test]
    fn metrics_report_writer_side_cuckoo_traffic() {
        let process = SharedDracoProcess::spawn(ProcessId(1), &docker_default()).unwrap();
        let mut t = process.spawn_thread();
        t.check(&req(135, &[0xffff_ffff, 0, 0])); // filter + insert
        t.check(&req(135, &[0xffff_ffff, 0, 0])); // vat hit
        t.sync_stats();
        let m = process.metrics();
        assert_eq!(m.checker.vat_hits, 1);
        assert_eq!(m.checker.vat_inserts, 1);
        assert_eq!(m.cuckoo.insertions, 1);
        assert!(m.vat.tables >= 1);
        assert!(m.vat.footprint_bytes > 0);
        assert_eq!(m.replay.checks, 0, "not our section");
    }

    /// A profile whitelisting 64 distinct argument sets of `read`, and
    /// the 64 requests that use them.
    fn many_read_sets() -> (draco_profiles::ProfileSpec, Vec<SyscallRequest>) {
        let requests: Vec<SyscallRequest> = (0..64u64).map(|i| req(0, &[i, 0xdead, 64])).collect();
        let mut gen = ProfileGenerator::new("many-read-sets");
        for r in &requests {
            gen.observe(r);
        }
        (gen.emit(ProfileKind::SyscallComplete), requests)
    }

    /// Runs `requests` on a fresh thread of `process`; returns how many
    /// were allowed.
    fn allowed(process: &SharedDracoProcess, requests: &[SyscallRequest]) -> usize {
        let mut t = process.spawn_thread();
        requests
            .iter()
            .filter(|r| t.check(r).action.permits())
            .count()
    }

    #[test]
    fn capped_tables_bound_memory() {
        let (profile, requests) = many_read_sets();
        let process = SharedDracoProcess::spawn_capped(ProcessId(1), &profile, 4).unwrap();
        assert_eq!(allowed(&process, &requests), 64, "every set is whitelisted");
        let resident = process.metrics().vat.resident_sets;
        assert!(0 < resident && resident <= 4, "resident sets: {resident}");
    }

    #[test]
    fn fork_keeps_the_vat_capacity_cap() {
        let (profile, requests) = many_read_sets();
        let parent = SharedDracoProcess::spawn_capped(ProcessId(1), &profile, 4).unwrap();
        let child = parent.fork(ProcessId(2));
        assert_eq!(allowed(&child, &requests), 64);
        let resident = child.metrics().vat.resident_sets;
        assert!(
            0 < resident && resident <= 4,
            "child resident sets: {resident}"
        );
    }

    #[test]
    fn display_and_debug_mention_identity() {
        let process = SharedDracoProcess::spawn(ProcessId(42), &docker_default()).unwrap();
        assert!(process.to_string().contains("pid:42"));
        assert!(format!("{process:?}").contains("spt_valid"));
        assert!(format!("{:?}", process.spawn_thread()).contains("pid"));
    }

    /// A mixed trace exercising every batch class: ID-only SPT exits,
    /// argument-checked candidates (with repeats in and across batches),
    /// denials, and an unknown syscall.
    fn mixed_trace() -> Vec<SyscallRequest> {
        let mut reqs = Vec::new();
        for i in 0..40u64 {
            reqs.push(req(0, &[3, 0, 100 + i % 3]));
            reqs.push(req(135, &[0xffff_ffff, 0, i % 2]));
            reqs.push(req(135, &[0x1234 + ((i % 4) << 16), 0, 0]));
            reqs.push(req(999, &[i, 0, 0]));
            reqs.push(req(135, &[0xffff_ffff, 0, i % 2]));
        }
        reqs
    }

    #[test]
    fn batch_matches_a_scalar_shared_loop_exactly() {
        let profile = docker_default();
        let trace = mixed_trace();
        for batch_size in [1usize, 3, 7, 64, trace.len()] {
            let batched = SharedDracoProcess::spawn(ProcessId(1), &profile).unwrap();
            let scalar = SharedDracoProcess::spawn(ProcessId(2), &profile).unwrap();
            let mut tb = batched.spawn_thread();
            let mut ts = scalar.spawn_thread();
            let mut out = vec![CheckResult::KILLED; trace.len()];
            for (chunk, slots) in trace.chunks(batch_size).zip(out.chunks_mut(batch_size)) {
                tb.check_batch(chunk, slots);
            }
            for (r, want) in trace.iter().zip(out.iter()) {
                let got = ts.check(r);
                assert_eq!(got.action, want.action, "batch={batch_size} {r}");
                assert_eq!(got.path, want.path, "batch={batch_size} {r}");
            }
            assert_eq!(
                tb.stats(),
                ts.stats(),
                "single-handle batch stats are byte-identical (batch={batch_size})"
            );
            let b = tb.batch_stats();
            assert_eq!(b.batched_checks, trace.len() as u64);
            assert_eq!(b.batches, trace.len().div_ceil(batch_size) as u64);
            // The shared batch is a loop over the scalar check: it
            // stages nothing, so it prefetches and dedups nothing.
            assert_eq!((b.prefetch_issued, b.miss_dedup_hits), (0, 0));
        }
    }

    #[test]
    fn batch_dedups_repeated_misses_through_the_caches() {
        let process = SharedDracoProcess::spawn(ProcessId(1), &docker_default()).unwrap();
        let mut t = process.spawn_thread();
        // Five copies of the same never-seen argument-checked request in
        // one batch: the first runs the filter, the other four hit the
        // VAT entry it inserted.
        let reqs = vec![req(135, &[0xffff_ffff, 0, 0]); 5];
        let mut out = vec![CheckResult::KILLED; 5];
        t.check_batch(&reqs, &mut out);
        assert!(out.iter().all(|r| r.action.permits()));
        assert_eq!(
            t.stats().filter_runs,
            1,
            "filter executed once per distinct key"
        );
        assert_eq!(t.stats().vat_hits, 4);
        assert_eq!(
            t.batch_stats().miss_dedup_hits,
            0,
            "no staged dedup on the shared loop"
        );
    }

    #[test]
    fn batch_kill_terminates_the_group_mid_batch() {
        let profile = gvisor_default(); // default action: kill-process
        let process = SharedDracoProcess::spawn(ProcessId(7), &profile).unwrap();
        let scalar = SharedDracoProcess::spawn(ProcessId(8), &profile).unwrap();
        let mut tb = process.spawn_thread();
        let mut ts = scalar.spawn_thread();
        let trace = [
            req(39, &[]),
            req(101, &[0, 0]), // ptrace: kill
            req(39, &[]),
            req(39, &[]),
        ];
        let mut out = [CheckResult::KILLED; 4];
        tb.syscall_batch(&trace, &mut out);
        for (r, want) in trace.iter().zip(out.iter()) {
            let got = ts.syscall(r);
            assert_eq!(got.action, want.action, "{r}");
            assert_eq!(got.path, want.path, "{r}");
        }
        assert!(!process.is_alive());
        assert_eq!(tb.stats(), ts.stats(), "post-kill slots never reach the tables");
    }

    #[test]
    fn concurrent_batches_agree_with_the_profile_oracle() {
        let profile = docker_default();
        let process = SharedDracoProcess::spawn(ProcessId(1), &profile).unwrap();
        let oracle = profile.clone();
        std::thread::scope(|scope| {
            for worker in 0..4u64 {
                let mut t = process.spawn_thread();
                let oracle = &oracle;
                scope.spawn(move || {
                    let mut reqs = Vec::new();
                    for i in 0..500u64 {
                        let nr =
                            [(0u16), 1, 135, 101, 999][(i.wrapping_mul(worker + 1) % 5) as usize];
                        reqs.push(req(nr, &[i % 4, 0, 0]));
                    }
                    let mut out = vec![CheckResult::KILLED; reqs.len()];
                    for (chunk, slots) in reqs.chunks(17).zip(out.chunks_mut(17)) {
                        t.check_batch(chunk, slots);
                    }
                    for (r, got) in reqs.iter().zip(out.iter()) {
                        assert_eq!(
                            got.action.permits(),
                            oracle.evaluate(r).permits(),
                            "{r}"
                        );
                    }
                });
            }
        });
        let stats = process.stats();
        assert_eq!(stats.total(), 2000, "every batched check accounted for");
    }
}
