//! The Draco check workflow (paper Fig. 4).

use core::fmt;

use draco_bpf::SeccompAction;
use draco_cuckoo::{CrcPairHasher, HashPair, Lookup, PairHasher};
use std::sync::Arc;

use draco_obs::{
    AuditRing, EventRing, FlowClass, FlowEvent, MetricsRegistry, SpanTracer, Stage, TraceScope,
};
use draco_profiles::{ProfileAnalysis, ProfileSpec};
use draco_syscalls::{ArgBitmask, MaskedBytes, SyscallRequest, SyscallTable, MAX_ARGS};

use crate::policy::Policy;
use crate::stats::Counters;
use crate::{BatchStats, CheckerStats, DracoError, EngineKind, Spt, Vat};

/// Which path admitted (or rejected) a check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckPath {
    /// SPT Valid bit sufficed (no argument checking required).
    SptHit,
    /// The VAT held the argument set.
    VatHit,
    /// The Seccomp filter ran (`insns` cBPF instructions executed).
    FilterRun {
        /// Instructions the fallback executed.
        insns: u64,
    },
}

impl CheckPath {
    /// True if the check skipped the filter.
    pub const fn is_cache_hit(self) -> bool {
        matches!(self, CheckPath::SptHit | CheckPath::VatHit)
    }
}

/// The verdict and provenance of one check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckResult {
    /// The final action (cached hits are always `Allow`).
    pub action: SeccompAction,
    /// How the verdict was produced.
    pub path: CheckPath,
}

impl CheckResult {
    /// The verdict a dead process reports without reaching the checker
    /// (also a convenient initializer for batch output slices).
    pub const KILLED: CheckResult = CheckResult {
        action: SeccompAction::KillProcess,
        path: CheckPath::FilterRun { insns: 0 },
    };

    /// True if the verdict ends the caller (`KillProcess` or
    /// `KillThread`).
    pub(crate) const fn kills(self) -> bool {
        matches!(
            self.action,
            SeccompAction::KillProcess | SeccompAction::KillThread
        )
    }
}

/// The verdict of one batched check — identical in shape and meaning to
/// [`CheckResult`]; the alias marks slices used as batch outputs.
pub type Decision = CheckResult;

/// Per-request classification produced by the batch's SPT-resolve pass.
#[derive(Clone, Copy, Debug, Default)]
enum BatchClass {
    /// The SPT word alone admits the request (ID-only checking or a
    /// rule without argument checks): a fast exit, no hashing.
    SptExit {
        /// The analyzer proved this syscall always-allowed.
        always_allow: bool,
    },
    /// SPT valid with a VAT table: hash, prefetch, probe.
    Candidate,
    /// No valid SPT word: full scalar check during the commit walk.
    #[default]
    Cold,
}

/// One slot of the batch's direct-mapped key-dedup index.
///
/// `epoch` tags the batch that wrote the slot, so resetting the index
/// is a counter bump instead of a memset. `distinct` indexes the
/// distinct-key arrays of the same batch.
#[derive(Clone, Copy, Debug, Default)]
struct DedupSlot {
    fp: u64,
    epoch: u64,
    distinct: u32,
}

/// Slots in the dedup index. Collisions are sound — a clashing key is
/// simply staged as its own distinct entry — so the table stays small
/// enough to live in L1/L2.
const DEDUP_SLOTS: usize = 256;

/// Ceiling on distinct keys for the bulk commit: past it the pairwise
/// table-distinctness check costs more than the walk it would replace.
const BULK_DISTINCT_LIMIT: usize = 16;

/// True if no VAT table index appears twice — the bulk commit's "one
/// distinct key per table" precondition.
#[inline]
fn tables_pairwise_distinct(cand: &[u32]) -> bool {
    cand.iter()
        .enumerate()
        .all(|(i, &c)| cand[..i].iter().all(|&p| p != c))
}

/// A cheap 64-bit fingerprint of a candidate's (table, masked-words)
/// identity, used only to index the dedup table. Equality of the full
/// mask and masked words is always re-verified before two requests
/// share staged work, so fingerprint quality affects the dedup *rate*,
/// never correctness.
#[inline]
fn words_fingerprint(idx: u32, words: &[u64; MAX_ARGS]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = (u64::from(idx) ^ 0xa076_1d64_78bd_642f).wrapping_mul(K);
    for &w in words {
        h = (h ^ w).wrapping_mul(K);
        h ^= h >> 29;
    }
    h ^ (h >> 32)
}

/// One slot of the batch's per-syscall resolve cache, indexed by raw
/// syscall number and epoch-tagged like [`DedupSlot`].
///
/// The first request of each syscall ID in a batch resolves its SPT
/// word (and, for candidates, expands the bitmask to per-argument mask
/// words); every later request of the same ID reuses the slot, turning
/// the per-request resolve into six ANDs and an array compare. Caching
/// is sound because all resolves happen in pass 1, before any commit
/// can mutate the SPT — the scalar loop would read the same words.
#[derive(Clone, Copy, Debug, Default)]
struct IdSlot {
    /// Batch that wrote the slot (any other value means vacant).
    epoch: u64,
    /// Resolved classification for this syscall ID.
    class: BatchClass,
    /// VAT table index (candidates only).
    idx: u32,
    /// SPT bitmask (candidates only).
    bitmask: ArgBitmask,
    /// `bitmask` expanded to per-argument byte-mask words.
    mask_words: [u64; MAX_ARGS],
    /// The distinct index this ID's most recent request mapped to, or
    /// `u32::MAX` if none yet — the fast path for straight-line replay
    /// traffic that repeats one argument set per syscall.
    distinct: u32,
}

/// Reusable staging buffers for [`DracoChecker::check_batch_with`].
///
/// All vectors are cleared — never freed — at batch start, so a warm
/// caller-held scratch makes the whole batch hit path allocation-free
/// (`crates/core/tests/zero_alloc_batch.rs` proves it under a counting
/// allocator).
///
/// The staging arrays hold one entry per *distinct* candidate key, not
/// per request: requests whose masked argument bytes match an
/// already-staged key (verified bytewise, not just by fingerprint)
/// share its hash, prefetch, and probe via `slot`.
#[derive(Debug, Default)]
pub struct BatchScratch {
    /// Pass-1 classification, one per request.
    class: Vec<BatchClass>,
    /// Per candidate, in request order: index into the distinct arrays.
    slot: Vec<u32>,
    /// VAT table index per distinct key.
    cand: Vec<u32>,
    /// SPT bitmask per distinct key (re-verified on dedup hits so two
    /// tables can never alias through equal masked words).
    cand_mask: Vec<ArgBitmask>,
    /// Per-argument masked words per distinct key — the dedup identity.
    cand_masked: Vec<[u64; MAX_ARGS]>,
    /// Requests mapped to each distinct key this batch.
    dups: Vec<u32>,
    /// Masked key bytes per distinct key.
    keys: Vec<MaskedBytes>,
    /// CRC hash pair per distinct key.
    pairs: Vec<HashPair>,
    /// Pass-3 probe result per distinct key.
    probes: Vec<Option<Lookup>>,
    /// Direct-mapped fingerprint → distinct-index map, epoch-tagged so
    /// a batch never sees a previous batch's entries.
    dedup: Vec<DedupSlot>,
    /// Per-syscall resolve cache, indexed by raw syscall number and
    /// epoch-tagged like `dedup`; sized to the SPT on first use.
    idcache: Vec<IdSlot>,
    /// Current batch's epoch (slots with any other epoch are vacant).
    epoch: u64,
}

impl BatchScratch {
    fn reset(&mut self) {
        self.class.clear();
        self.slot.clear();
        self.cand.clear();
        self.cand_mask.clear();
        self.cand_masked.clear();
        self.dups.clear();
        self.keys.clear();
        self.pairs.clear();
        self.probes.clear();
        if self.dedup.is_empty() {
            self.dedup.resize(DEDUP_SLOTS, DedupSlot::default());
        }
        // Epoch 0 is the vacant default, so the first batch starts at 1.
        self.epoch += 1;
    }
}

/// Software Draco: SPT + VAT in front of a Seccomp filter.
///
/// The checker is sound because caching only ever stores *positive*
/// verdicts of a stateless profile: a hit replays an earlier `Allow`; a
/// miss runs the real filter. See the crate docs for the workflow diagram
/// and `tests/equivalence.rs` for the machine-checked statement.
#[derive(Debug)]
pub struct DracoChecker {
    spt: Spt,
    vat: Vat,
    /// The installed profile, miss-path engine and analysis plan. A
    /// fork shares it; `install_additional` replaces it.
    policy: Arc<Policy>,
    counters: Counters,
    /// Optional bounded trace of recent flow classifications. `None`
    /// (the default) costs one branch per check; enabling pre-allocates
    /// the whole ring, so recording stays allocation-free.
    flow_trace: Option<EventRing>,
    /// Optional sampled stage-span tracer. Boxed so the hot path moves a
    /// pointer, not the tracer's buffers; `None` (the default) costs one
    /// branch per check, and even when installed an *unsampled* check
    /// never reads the clock.
    span_trace: Option<Box<SpanTracer>>,
    /// Monotonic check counter (sequences trace events).
    check_seq: u64,
    /// Optional denial audit stream: `(ring, source id)`. `None` (the
    /// default) costs one branch per *denial* — allowed checks never
    /// consult it. Offering into the ring is lock-free and
    /// allocation-free, so the stream is hot-path safe.
    audit: Option<(Arc<AuditRing>, u16)>,
    /// Internal staging buffers for `check_batch` (callers wanting
    /// explicit buffer control use `check_batch_with`).
    batch_scratch: BatchScratch,
}

impl DracoChecker {
    /// Builds a checker for a profile, compiling the fallback filter in
    /// the linear layout with the pre-decoded (JIT-model) executor.
    /// Arguments are checked iff the profile has argument rules: only a
    /// whitelist rule ever gets a VAT table.
    ///
    /// # Errors
    ///
    /// Returns [`DracoError::FilterCompile`] if filter compilation fails.
    pub fn from_profile(profile: &ProfileSpec) -> Result<Self, DracoError> {
        Self::from_profile_with_engine(profile, EngineKind::Compiled)
    }

    /// Builds a checker for a profile with an explicit miss-path engine
    /// (e.g. [`EngineKind::Dag`] for the specialized decision DAG).
    ///
    /// # Errors
    ///
    /// Returns [`DracoError::FilterCompile`] if filter compilation fails.
    pub fn from_profile_with_engine(
        profile: &ProfileSpec,
        kind: EngineKind,
    ) -> Result<Self, DracoError> {
        let policy = Policy::build(profile.clone(), kind)?;
        Ok(Self::with_policy(Arc::new(policy)))
    }

    /// A checker with cold tables enforcing `policy`.
    fn with_policy(policy: Arc<Policy>) -> Self {
        let capacity = SyscallTable::shared().capacity();
        DracoChecker {
            spt: Spt::new(capacity),
            vat: Vat::new(),
            policy,
            counters: Counters::default(),
            flow_trace: None,
            span_trace: None,
            check_seq: 0,
            audit: None,
            batch_scratch: BatchScratch::default(),
        }
    }

    /// A checker for a forked child: the parent's policy (profile,
    /// engine and analysis plan, shared — nothing is recompiled) over
    /// cold tables, with no preload and none of the parent's counters
    /// or observability attachments.
    pub(crate) fn fork(&self) -> Self {
        Self::with_policy(Arc::clone(&self.policy))
    }

    /// The flavor of the miss-path filter engine.
    pub fn engine_kind(&self) -> EngineKind {
        self.policy.filter.kind()
    }

    /// Installs a precomputed analysis plan (e.g. one shared across
    /// processes running the same profile): syscalls proven
    /// always-allowed are cached with an empty bitmask (pure SPT hits,
    /// no CRC/VAT work), and whitelisted syscalls cache under the
    /// analyzer-derived argument mask. The analysis **must** come from
    /// [`draco_profiles::analyze_profile`] /
    /// [`draco_profiles::analyze_stack`] over this checker's profile —
    /// enforced by name here. Cached state is flushed so every resident
    /// entry was keyed consistently with the plan's masks.
    ///
    /// # Panics
    ///
    /// Panics if the analysis was computed for a different profile.
    pub fn install_analysis(&mut self, analysis: &ProfileAnalysis) {
        if let Some(policy) = Arc::get_mut(&mut self.policy) {
            policy.install_analysis(analysis);
        } else {
            // A forked checker shares its parent's policy: give it a
            // private copy rather than change the parent's.
            let mut policy = Policy::build(self.policy.profile.clone(), self.engine_kind())
                .expect("the installed profile compiled once");
            policy.install_analysis(analysis);
            self.policy = Arc::new(policy);
        }
        self.flush();
    }

    /// Whether an analysis plan is installed.
    pub fn has_analysis(&self) -> bool {
        self.policy.plan.is_some()
    }

    /// Caps every VAT table at `cap` entries (builder-style): an OS
    /// memory-pressure policy. Evicted argument sets simply revalidate
    /// through the filter on their next use.
    #[must_use]
    pub fn with_vat_capacity_cap(mut self, cap: usize) -> Self {
        self.vat = crate::Vat::new().with_capacity_cap(cap);
        self
    }

    /// The profile being enforced.
    pub fn profile(&self) -> &ProfileSpec {
        &self.policy.profile
    }

    /// Accumulated counters.
    pub const fn stats(&self) -> CheckerStats {
        self.counters.stats
    }

    /// Accumulated batched-path counters.
    pub const fn batch_stats(&self) -> BatchStats {
        self.counters.batch
    }

    /// This checker's observability snapshot: the `checker` section from
    /// its own counters and histograms, the `cuckoo` and `vat` sections
    /// aggregated from its VAT tables. (The `sim`/`replay` sections stay
    /// zeroed — they belong to other layers.)
    pub fn metrics(&self) -> MetricsRegistry {
        MetricsRegistry {
            checker: self.counters.metrics(self.policy.plan.as_ref()),
            cuckoo: self.vat.cuckoo_metrics(),
            vat: self.vat.metrics(),
            ..MetricsRegistry::default()
        }
    }

    /// Enables the bounded flow-classification trace, keeping the most
    /// recent `capacity` events. The ring is fully allocated here, so
    /// recording on the check hot path never touches the heap.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn enable_flow_trace(&mut self, capacity: usize) {
        self.flow_trace = Some(EventRing::with_capacity(capacity));
    }

    /// Disables (and drops) the flow trace.
    pub fn disable_flow_trace(&mut self) {
        self.flow_trace = None;
    }

    /// The flow trace, if enabled.
    pub fn flow_trace(&self) -> Option<&EventRing> {
        self.flow_trace.as_ref()
    }

    /// Attaches a denial audit stream: every denying verdict this
    /// checker produces is offered into `ring` tagged with `source`
    /// (typically the process or replay-shard id). The ring is shared —
    /// many checkers can feed one stream — and offering is lock-free
    /// and allocation-free, so the hot path's zero-allocation contract
    /// holds with auditing enabled.
    pub fn enable_audit(&mut self, ring: Arc<AuditRing>, source: u16) {
        self.audit = Some((ring, source));
    }

    /// Detaches (and releases this checker's handle on) the audit
    /// stream.
    pub fn disable_audit(&mut self) {
        self.audit = None;
    }

    /// The attached audit ring, if any.
    pub fn audit_ring(&self) -> Option<&Arc<AuditRing>> {
        self.audit.as_ref().map(|(ring, _)| ring)
    }

    /// Installs a sampled stage-span tracer (typically one built with a
    /// shared epoch and shard id for cross-shard merging). The tracer's
    /// buffers were pre-allocated at construction, so sampled checks
    /// record without touching the heap.
    pub fn install_span_tracer(&mut self, tracer: SpanTracer) {
        self.span_trace = Some(Box::new(tracer));
    }

    /// Enables span tracing with a fresh tracer holding up to `capacity`
    /// spans and sampling every `sample_interval`-th check (rounded up
    /// to a power of two). See [`SpanTracer::new`].
    pub fn enable_span_trace(&mut self, capacity: usize, sample_interval: u64) {
        self.install_span_tracer(SpanTracer::new(capacity, sample_interval));
    }

    /// Removes and returns the span tracer (e.g. to export its spans).
    pub fn take_span_tracer(&mut self) -> Option<SpanTracer> {
        self.span_trace.take().map(|boxed| *boxed)
    }

    /// The span tracer, if installed.
    pub fn span_tracer(&self) -> Option<&SpanTracer> {
        self.span_trace.as_deref()
    }

    /// Records a flow classification into the trace ring (if enabled).
    fn trace_flow(&mut self, req: &SyscallRequest, class: FlowClass) {
        if let Some(ring) = self.flow_trace.as_mut() {
            ring.record(FlowEvent {
                seq: self.check_seq,
                syscall: req.id.as_u16(),
                class,
            });
        }
    }

    /// The SPT (read access for inspection and the simulator).
    pub fn spt(&self) -> &Spt {
        &self.spt
    }

    /// The VAT (read access for inspection and the simulator).
    pub fn vat(&self) -> &Vat {
        &self.vat
    }

    /// Pre-populates the SPT (and VAT structures) from the profile, as an
    /// OS could do at filter-install time. With warm tables, the first
    /// encounter of each ID-only syscall is already a hit.
    pub fn preload_spt(&mut self) {
        let policy = &*self.policy;
        for (id, rule) in policy.profile.rules() {
            match policy.cache_plan(id, rule) {
                (mask, Some(sets)) => {
                    let idx = self.vat.ensure_table(id, sets);
                    self.spt.set_valid(id, mask, Some(idx));
                }
                (mask, None) => self.spt.set_valid(id, mask, None),
            }
        }
    }

    /// Checks one system call (paper Fig. 4).
    pub fn check(&mut self, req: &SyscallRequest) -> CheckResult {
        self.check_seq = self.check_seq.saturating_add(1);
        // The tracer leaves `self` while the check borrows both — with no
        // tracer installed this moves a `None` box, with one installed an
        // unsampled check costs the sampling branch inside `begin`.
        let mut tracer = self.span_trace.take();
        let mut scope = TraceScope::begin(tracer.as_deref_mut(), self.check_seq, req.id.as_u16());
        let result = self.check_staged(req, &mut scope);
        self.span_trace = tracer;
        result
    }

    /// Checks a whole batch, amortizing per-check overhead across staged
    /// passes: (1) SPT-word resolve for all requests, partitioning fast
    /// exits from VAT candidates and deduplicating candidates on their
    /// masked key (repeats of a staged key share its staged work);
    /// (2) 4-lane interleaved CRC-64 hashing of the distinct surviving
    /// keys; (3) software prefetch of every distinct key's cuckoo slots
    /// (both ways) followed by a bulk probe pass; (4) an in-order commit
    /// walk that fans decisions out — replaying per-request hit/lookup
    /// bookkeeping — and runs the filter for misses.
    ///
    /// Produces exactly the decisions — and exactly the
    /// [`CheckerStats`] and table metrics — of calling
    /// [`DracoChecker::check`] on each request in order
    /// (`tests/equivalence.rs` pins this differentially). Misses
    /// deduplicate *through the caches*: once an early request validates
    /// a key, later requests in the same batch re-probe and hit instead
    /// of re-running the filter (counted in
    /// [`BatchStats::miss_dedup_hits`]). Denials are never memoized —
    /// every denied request runs the real filter, exactly as the scalar
    /// loop does.
    ///
    /// Writes one [`Decision`] per request into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != reqs.len()`.
    pub fn check_batch(&mut self, reqs: &[SyscallRequest], out: &mut [Decision]) {
        let mut scratch = core::mem::take(&mut self.batch_scratch);
        self.check_batch_with(reqs, out, &mut scratch);
        self.batch_scratch = scratch;
    }

    /// [`DracoChecker::check_batch`] with caller-provided staging
    /// buffers — the zero-allocation form once `scratch` is warm.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != reqs.len()`.
    pub fn check_batch_with(
        &mut self,
        reqs: &[SyscallRequest],
        out: &mut [Decision],
        scratch: &mut BatchScratch,
    ) {
        let committed = self.batch_passes(reqs, out, scratch, false);
        debug_assert_eq!(committed, reqs.len());
    }

    /// Batch segment for process-level callers: commits decisions in
    /// request order but stops immediately after committing a kill
    /// verdict, returning how many decisions were committed. The
    /// pre-commit passes are read-only (SPT accessed bits aside, which
    /// no stat or decision observes), so aborting the walk mid-batch
    /// leaves the checker exactly as a scalar loop that stopped at the
    /// same request.
    pub(crate) fn check_batch_segment(
        &mut self,
        reqs: &[SyscallRequest],
        out: &mut [Decision],
    ) -> usize {
        let mut scratch = core::mem::take(&mut self.batch_scratch);
        let committed = self.batch_passes(reqs, out, &mut scratch, true);
        self.batch_scratch = scratch;
        committed
    }

    /// The four staged passes. Returns the number of decisions
    /// committed (always `reqs.len()` unless `stop_on_kill` cut the
    /// commit walk short).
    fn batch_passes(
        &mut self,
        reqs: &[SyscallRequest],
        out: &mut [Decision],
        scratch: &mut BatchScratch,
        stop_on_kill: bool,
    ) -> usize {
        assert_eq!(reqs.len(), out.len(), "one decision slot per request");
        if reqs.is_empty() {
            return 0;
        }
        self.counters.record_batch(reqs.len());
        let before = self.counters.stats;
        scratch.reset();

        // One trace scope spans the whole batch (sequenced like the
        // batch's first check); each pass records its own stage.
        let mut tracer = self.span_trace.take();
        let mut scope = TraceScope::begin(
            tracer.as_deref_mut(),
            self.check_seq.saturating_add(1),
            reqs.first().map_or(0, |r| r.id.as_u16()),
        );

        // Pass 1 — resolve every request's SPT word, partitioning pure
        // SPT exits from VAT candidates, and deduplicate candidates on
        // their masked argument words: repeats of a key already staged
        // this batch (same table, same mask, equal masked words — which
        // is exactly selected-bytes equality) share its
        // hash/prefetch/probe instead of re-staging it. The per-syscall
        // resolve cache makes a repeat request cost six ANDs and a
        // compare. Hot replay traffic repeats a handful of argument
        // sets per batch, so this is where the batch earns its
        // amortization.
        let t = scope.stage_begin();
        let epoch = scratch.epoch;
        let cap = self.spt.capacity();
        if scratch.idcache.len() < cap {
            scratch.idcache.resize(cap, IdSlot::default());
        }
        let (mut n_spt, mut n_aa, mut n_cold) = (0u64, 0u64, 0u64);
        for req in reqs {
            let sid = req.id.as_u16() as usize;
            if sid >= scratch.idcache.len() {
                // Out of SPT range: the scalar path treats this as a
                // miss; route it through the commit walk unchanged.
                scratch.class.push(BatchClass::Cold);
                n_cold += 1;
                continue;
            }
            let slot = &mut scratch.idcache[sid];
            if slot.epoch != epoch {
                *slot = match self.spt.get(req.id) {
                    None => IdSlot {
                        epoch,
                        ..IdSlot::default()
                    },
                    Some(entry) => match entry.vat_index {
                        None => IdSlot {
                            epoch,
                            class: BatchClass::SptExit {
                                always_allow: self.policy.always_allows(req.id),
                            },
                            ..IdSlot::default()
                        },
                        Some(idx) => IdSlot {
                            epoch,
                            class: BatchClass::Candidate,
                            idx,
                            bitmask: entry.bitmask,
                            mask_words: entry.bitmask.expand(),
                            distinct: u32::MAX,
                        },
                    },
                };
            }
            let class = slot.class;
            match class {
                BatchClass::Cold => n_cold += 1,
                BatchClass::SptExit { always_allow } => {
                    n_spt += 1;
                    n_aa += u64::from(always_allow);
                }
                BatchClass::Candidate => {
                    let idx = slot.idx;
                    let args = req.args.as_array();
                    let mut w = [0u64; MAX_ARGS];
                    for ((wi, &a), &m) in w.iter_mut().zip(args.iter()).zip(&slot.mask_words) {
                        *wi = a & m;
                    }
                    let distinct = if slot.distinct != u32::MAX
                        && scratch.cand_masked[slot.distinct as usize] == w
                    {
                        slot.distinct
                    } else {
                        let fp = words_fingerprint(idx, &w);
                        let d = &mut scratch.dedup[(fp as usize) & (DEDUP_SLOTS - 1)];
                        let hit = d.epoch == epoch
                            && d.fp == fp
                            && scratch.cand[d.distinct as usize] == idx
                            && scratch.cand_mask[d.distinct as usize] == slot.bitmask
                            && scratch.cand_masked[d.distinct as usize] == w;
                        if hit {
                            d.distinct
                        } else {
                            let fresh = scratch.cand.len() as u32;
                            scratch.cand.push(idx);
                            scratch.cand_mask.push(slot.bitmask);
                            scratch.cand_masked.push(w);
                            scratch.keys.push(slot.bitmask.select_bytes(&req.args));
                            scratch.dups.push(0);
                            *d = DedupSlot {
                                fp,
                                epoch,
                                distinct: fresh,
                            };
                            fresh
                        }
                    };
                    scratch.dups[distinct as usize] += 1;
                    slot.distinct = distinct;
                    scratch.slot.push(distinct);
                }
            }
            scratch.class.push(class);
        }
        scope.stage_end(Stage::BatchSptResolve, t);

        // Pass 2 — CRC-64 both ways for every surviving key, four lanes
        // interleaved (falls back to scalar for the remainder).
        let t = scope.stage_begin();
        let hasher = CrcPairHasher::new();
        let mut lanes = scratch.keys.chunks_exact(4);
        for four in &mut lanes {
            scratch.pairs.extend_from_slice(&hasher.hash_pair4([
                four[0].as_slice(),
                four[1].as_slice(),
                four[2].as_slice(),
                four[3].as_slice(),
            ]));
        }
        for key in lanes.remainder() {
            scratch.pairs.push(hasher.hash_pair(key.as_slice()));
        }
        scope.stage_end(Stage::BatchCrcHash, t);

        // Pass 3 — touch every distinct key's cuckoo slots (both ways)
        // before any probe, overlapping cache fills the way the
        // hardware SLB overlaps probe latency with younger work; then
        // probe once per distinct key. Probes do not count lookups yet —
        // the commit walk replays that bookkeeping per request, in
        // request order.
        let t = scope.stage_begin();
        for (&idx, &pair) in scratch.cand.iter().zip(scratch.pairs.iter()) {
            if self.vat.prefetch(idx, pair) {
                self.counters.batch.prefetch_issued += 2;
            }
        }
        scope.stage_end(Stage::BatchPrefetch, t);
        let t = scope.stage_begin();
        for ((&idx, key), &pair) in scratch
            .cand
            .iter()
            .zip(scratch.keys.iter())
            .zip(scratch.pairs.iter())
        {
            scratch
                .probes
                .push(self.vat.probe_hashed(idx, key.as_slice(), pair));
        }
        scope.stage_end(Stage::BatchProbe, t);

        // Pass 4 — commit. An all-hit batch (no cold requests, every
        // distinct probe hit) with no flow trace attached commits in
        // O(distinct) instead of O(requests): the scalar loop's
        // bookkeeping for n consecutive hits on one entry has a closed
        // form (`Vat::count_hits_bulk`), histograms are order-free
        // bags, and with no filter run possible the recorded
        // saved-insns mean is a single loop-invariant value. The
        // pairwise-distinct table check keeps the closed form exact —
        // one distinct key per table means each table really does see
        // consecutive same-entry hits.
        let t = scope.stage_begin();
        let mut committed = reqs.len();
        let bulk = n_cold == 0
            && self.flow_trace.is_none()
            && scratch.cand.len() <= BULK_DISTINCT_LIMIT
            && scratch.probes.iter().all(Option::is_some)
            && tables_pairwise_distinct(&scratch.cand);
        if bulk {
            self.commit_batch_bulk(reqs, out, scratch, n_spt, n_aa);
            scope.stage_end(Stage::BatchCommit, t);
        } else {
            committed = self.commit_batch_walk(reqs, out, scratch, stop_on_kill);
            scope.stage_end(Stage::BatchCommit, t);
        }

        // Classify the whole batch by its most severe flow (delta over
        // the stats captured at entry).
        let stats = &self.counters.stats;
        let class = if stats.denials != before.denials {
            FlowClass::FilterDeny
        } else if stats.filter_runs != before.filter_runs {
            FlowClass::FilterAllow
        } else if stats.vat_hits != before.vat_hits {
            FlowClass::VatHit
        } else {
            FlowClass::SptHit
        };
        scope.finish(class);
        self.span_trace = tracer;
        committed
    }

    /// O(distinct) commit for a batch that is provably all cache hits.
    ///
    /// Produces byte-identical [`CheckerStats`] and metrics to the
    /// per-request walk (and hence to the scalar loop — the replay and
    /// equivalence suites pin both): counter increments are bulk sums,
    /// per-table lookup bookkeeping goes through
    /// [`Vat::count_hits_bulk`]'s exact closed form, and every hit
    /// records the same loop-invariant filter-cost mean the scalar
    /// loop would. No filter ever runs here, so no kill verdict can
    /// occur and `stop_on_kill` is vacuous.
    fn commit_batch_bulk(
        &mut self,
        reqs: &[SyscallRequest],
        out: &mut [Decision],
        scratch: &BatchScratch,
        n_spt: u64,
        n_aa: u64,
    ) {
        self.check_seq = self.check_seq.saturating_add(reqs.len() as u64);
        let counters = &mut self.counters;
        counters.stats.spt_hits += n_spt;
        counters.stats.always_allow_hits += n_aa;
        let cand_requests = scratch.slot.len() as u64;
        counters.stats.vat_hits += cand_requests;
        let mean = counters.mean_filter_cost();
        counters
            .saved_insns_per_hit
            .record_n(mean, n_spt + cand_requests);
        for ((&idx, probe), &n) in scratch
            .cand
            .iter()
            .zip(scratch.probes.iter())
            .zip(scratch.dups.iter())
        {
            if let Some(hit) = *probe {
                self.vat.count_hits_bulk(idx, hit, u64::from(n));
            }
        }
        const SPT_HIT: Decision = CheckResult {
            action: SeccompAction::Allow,
            path: CheckPath::SptHit,
        };
        const VAT_HIT: Decision = CheckResult {
            action: SeccompAction::Allow,
            path: CheckPath::VatHit,
        };
        // Uniform batches (the common replay shape) fan out with a
        // single fill; mixed batches walk the class array.
        if n_spt == 0 {
            out.fill(VAT_HIT);
        } else if cand_requests == 0 {
            out.fill(SPT_HIT);
        } else {
            for (slot, class) in out.iter_mut().zip(scratch.class.iter()) {
                *slot = match class {
                    BatchClass::SptExit { .. } => SPT_HIT,
                    BatchClass::Candidate => VAT_HIT,
                    BatchClass::Cold => unreachable!("bulk commit requires a cold-free batch"),
                };
            }
        }
    }

    /// The general per-request commit walk — the reference semantics
    /// every batch must match.
    fn commit_batch_walk(
        &mut self,
        reqs: &[SyscallRequest],
        out: &mut [Decision],
        scratch: &BatchScratch,
        stop_on_kill: bool,
    ) -> usize {
        // `stale` flips once a filter run inserts into the VAT: inserts
        // can relocate or evict entries, so later candidates re-probe
        // with their cached hash pair (a re-probe that now hits is a
        // batch-local dedup).
        let mut stale = false;
        let mut cursor = 0usize;
        let mut committed = reqs.len();
        // Between filter runs `stats.filter_{insns,runs}` cannot change,
        // so the mean a hit records is loop-invariant: hoist it and
        // refresh only after a path that may run the filter. Each hit
        // still records exactly the value the scalar loop would.
        let mut mean = self.counters.mean_filter_cost();
        for (i, req) in reqs.iter().enumerate() {
            self.check_seq = self.check_seq.saturating_add(1);
            let result = match scratch.class[i] {
                BatchClass::SptExit { always_allow } => {
                    self.counters.stats.spt_hits += 1;
                    self.counters.stats.always_allow_hits += u64::from(always_allow);
                    self.counters.saved_insns_per_hit.record(mean);
                    self.trace_flow(req, FlowClass::SptHit);
                    CheckResult {
                        action: SeccompAction::Allow,
                        path: CheckPath::SptHit,
                    }
                }
                BatchClass::Candidate => {
                    let slot = scratch.slot[cursor] as usize;
                    cursor += 1;
                    let idx = scratch.cand[slot];
                    let mut found = scratch.probes[slot];
                    if stale {
                        let fresh = self.vat.probe_hashed(
                            idx,
                            scratch.keys[slot].as_slice(),
                            scratch.pairs[slot],
                        );
                        if found.is_none() && fresh.is_some() {
                            self.counters.batch.miss_dedup_hits += 1;
                        }
                        found = fresh;
                    }
                    self.vat.count_lookup(idx, found);
                    if found.is_some() {
                        self.counters.stats.vat_hits += 1;
                        self.counters.saved_insns_per_hit.record(mean);
                        self.trace_flow(req, FlowClass::VatHit);
                        CheckResult {
                            action: SeccompAction::Allow,
                            path: CheckPath::VatHit,
                        }
                    } else {
                        let inserts = self.counters.stats.vat_inserts;
                        let result = self.run_filter_and_update(req, &mut TraceScope::inactive());
                        stale |= self.counters.stats.vat_inserts != inserts;
                        mean = self.counters.mean_filter_cost();
                        result
                    }
                }
                BatchClass::Cold => {
                    let cached = self.counters.stats.spt_hits + self.counters.stats.vat_hits;
                    let inserts = self.counters.stats.vat_inserts;
                    let result = self.check_staged(req, &mut TraceScope::inactive());
                    if self.counters.stats.spt_hits + self.counters.stats.vat_hits != cached {
                        self.counters.batch.miss_dedup_hits += 1;
                    }
                    stale |= self.counters.stats.vat_inserts != inserts;
                    mean = self.counters.mean_filter_cost();
                    result
                }
            };
            out[i] = result;
            if stop_on_kill && result.kills() {
                committed = i + 1;
                break;
            }
        }
        committed
    }

    fn check_staged(&mut self, req: &SyscallRequest, scope: &mut TraceScope<'_>) -> CheckResult {
        // 1. SPT lookup by SID.
        let t = scope.stage_begin();
        let entry = self.spt.get(req.id);
        scope.stage_end(Stage::SptLookup, t);
        if let Some(entry) = entry {
            match entry.vat_index {
                // This syscall needs no argument checks.
                None => {
                    self.counters.spt_hit(self.policy.always_allows(req.id));
                    self.trace_flow(req, FlowClass::SptHit);
                    scope.finish(FlowClass::SptHit);
                    return CheckResult {
                        action: SeccompAction::Allow,
                        path: CheckPath::SptHit,
                    };
                }
                // 2. VAT probe. The sampled path decomposes the lookup
                // into its hash/per-way stages; both paths produce
                // identical results and counters.
                Some(idx) => {
                    let hit = if scope.is_active() {
                        self.vat.lookup_traced(idx, entry.bitmask, &req.args, scope)
                    } else {
                        self.vat.lookup(idx, entry.bitmask, &req.args)
                    };
                    if hit.is_some() {
                        self.counters.vat_hit();
                        self.trace_flow(req, FlowClass::VatHit);
                        scope.finish(FlowClass::VatHit);
                        return CheckResult {
                            action: SeccompAction::Allow,
                            path: CheckPath::VatHit,
                        };
                    }
                }
            }
        }
        // 3. Fall back to the Seccomp filter.
        self.run_filter_and_update(req, scope)
    }

    fn run_filter_and_update(
        &mut self,
        req: &SyscallRequest,
        scope: &mut TraceScope<'_>,
    ) -> CheckResult {
        let audit = self.audit.as_ref().map(|(ring, source)| (&**ring, *source));
        let result = self
            .policy
            .run_filter(req, &mut self.counters, audit, scope);
        let class = if result.action.permits() {
            let t = scope.stage_begin();
            self.record_validation(req);
            scope.stage_end(Stage::VatInsert, t);
            FlowClass::FilterAllow
        } else {
            FlowClass::FilterDeny
        };
        self.trace_flow(req, class);
        scope.finish(class);
        result
    }

    /// Updates SPT/VAT after a successful filter run ("Update Table" in
    /// paper Fig. 4).
    fn record_validation(&mut self, req: &SyscallRequest) {
        let policy = &*self.policy;
        // The filter allowed a syscall the profile has no rule for
        // (cannot happen with generated filters; defensive for custom
        // engines): do not cache.
        let Some(rule) = policy.profile.rule(req.id) else {
            return;
        };
        match policy.cache_plan(req.id, rule) {
            (mask, Some(sets)) => {
                let idx = self.vat.ensure_table(req.id, sets);
                self.spt.set_valid(req.id, mask, Some(idx));
                self.vat.insert(idx, mask, &req.args);
                self.counters.stats.vat_inserts += 1;
            }
            (mask, None) => self.spt.set_valid(req.id, mask, None),
        }
    }

    /// Clears all cached state (the paper's one-shot clear, §VII-B).
    pub fn flush(&mut self) {
        self.spt.invalidate_all();
        self.vat.clear();
    }

    /// Attaches an additional filter, as `seccomp(2)` allows a running
    /// process to do. The effective policy becomes the intersection
    /// (kernel most-restrictive combining) and every cached validation is
    /// flushed — a pair the old tables admitted may now be denied, so
    /// §VII-B's "filters are not modified" soundness condition is
    /// re-established by starting cold.
    ///
    /// # Errors
    ///
    /// Returns [`DracoError::FilterCompile`] if the combined filter fails
    /// to compile.
    pub fn install_additional(&mut self, extra: &ProfileSpec) -> Result<(), DracoError> {
        self.policy = Arc::new(self.policy.intersect(extra)?);
        self.flush();
        Ok(())
    }
}

impl fmt::Display for DracoChecker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DracoChecker[{}] {}",
            self.policy.profile.name(),
            self.counters.stats
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use draco_obs::{AuditEngine, AuditProvenance};
    use draco_profiles::{
        analyze_profile, docker_default, ArgPolicy, ProfileGenerator, ProfileKind,
    };
    use draco_syscalls::{ArgSet, SyscallId};

    fn req(nr: u16, args: &[u64]) -> SyscallRequest {
        SyscallRequest::new(0x1000, SyscallId::new(nr), ArgSet::from_slice(args))
    }

    /// A checker with the profile's analysis plan installed.
    fn analyzed(profile: &ProfileSpec, kind: EngineKind) -> DracoChecker {
        let mut checker = DracoChecker::from_profile_with_engine(profile, kind).unwrap();
        checker.install_analysis(&analyze_profile(profile).unwrap());
        checker
    }

    #[test]
    fn id_only_profile_uses_spt() {
        let mut gen = ProfileGenerator::new("app");
        gen.observe(&req(39, &[]));
        let profile = gen.emit(ProfileKind::SyscallNoargs);
        let mut checker = DracoChecker::from_profile(&profile).unwrap();

        let r1 = checker.check(&req(39, &[]));
        assert!(matches!(r1.path, CheckPath::FilterRun { .. }));
        assert_eq!(r1.action, SeccompAction::Allow);
        let r2 = checker.check(&req(39, &[]));
        assert_eq!(r2.path, CheckPath::SptHit);
        assert_eq!(checker.stats().spt_hits, 1);
        assert_eq!(checker.stats().filter_runs, 1);
        assert_eq!(checker.metrics().vat.tables, 0, "no argument rule, no VAT");
    }

    #[test]
    fn arg_checking_profile_uses_vat() {
        let mut gen = ProfileGenerator::new("app");
        gen.observe(&req(0, &[3, 0xaaaa, 64]));
        gen.observe(&req(0, &[4, 0xbbbb, 128]));
        let profile = gen.emit(ProfileKind::SyscallComplete);
        let mut checker = DracoChecker::from_profile(&profile).unwrap();

        // First encounters run the filter.
        assert!(!checker.check(&req(0, &[3, 1, 64])).path.is_cache_hit());
        assert!(!checker.check(&req(0, &[4, 2, 128])).path.is_cache_hit());
        // Re-encounters hit the VAT (pointer arg may differ).
        let r = checker.check(&req(0, &[3, 999, 64]));
        assert_eq!(r.path, CheckPath::VatHit);
        assert_eq!(r.action, SeccompAction::Allow);
        assert_eq!(checker.stats().vat_hits, 1);
        assert_eq!(checker.stats().vat_inserts, 2);
    }

    #[test]
    fn denied_calls_never_cached() {
        let mut gen = ProfileGenerator::new("app");
        gen.observe(&req(0, &[3, 0, 64]));
        let profile = gen.emit(ProfileKind::SyscallComplete);
        let mut checker = DracoChecker::from_profile(&profile).unwrap();

        for _ in 0..3 {
            let r = checker.check(&req(0, &[9, 0, 64]));
            assert!(!r.action.permits());
            assert!(matches!(r.path, CheckPath::FilterRun { .. }));
        }
        assert_eq!(checker.stats().denials, 3);
        assert_eq!(checker.stats().vat_hits, 0);
    }

    #[test]
    fn audit_ring_sees_every_denial_and_nothing_else() {
        let mut gen = ProfileGenerator::new("app");
        gen.observe(&req(0, &[3, 0, 64]));
        let profile = gen.emit(ProfileKind::SyscallComplete);
        let mut checker = DracoChecker::from_profile(&profile).unwrap();
        let ring = Arc::new(AuditRing::with_capacity(16));
        checker.enable_audit(Arc::clone(&ring), 7);

        checker.check(&req(0, &[3, 0, 64])); // allowed: no event
        checker.check(&req(0, &[9, 0, 64])); // denied
        checker.check(&req(99, &[0, 0, 0])); // denied (unknown syscall)
        assert_eq!(checker.stats().denials, 2);
        assert_eq!(
            ring.events_published() + ring.events_dropped(),
            checker.stats().denials
        );

        let mut events = Vec::new();
        ring.drain(&mut events);
        assert_eq!(events.len(), 2);
        for event in &events {
            assert_eq!(event.source, 7);
            assert_eq!(event.engine, AuditEngine::Compiled);
        }
        assert_eq!(events[0].syscall, 0);
        assert_eq!(events[1].syscall, 99);

        checker.disable_audit();
        checker.check(&req(0, &[9, 0, 64]));
        assert!(ring.is_empty());
    }

    #[test]
    fn audit_batch_path_matches_scalar_denials() {
        let mut gen = ProfileGenerator::new("app");
        gen.observe(&req(0, &[3, 0, 64]));
        let profile = gen.emit(ProfileKind::SyscallComplete);
        let mut checker = DracoChecker::from_profile(&profile).unwrap();
        let ring = Arc::new(AuditRing::with_capacity(64));
        checker.enable_audit(Arc::clone(&ring), 1);

        let reqs: Vec<SyscallRequest> = (0..32)
            .map(|i| {
                if i % 3 == 0 {
                    req(0, &[9 + i, 0, 64]) // denied: unvalidated fd
                } else {
                    req(0, &[3, 0, 64]) // allowed
                }
            })
            .collect();
        let mut out = vec![
            CheckResult {
                action: SeccompAction::Allow,
                path: CheckPath::SptHit,
            };
            reqs.len()
        ];
        checker.check_batch(&reqs, &mut out);
        let denied = out.iter().filter(|r| !r.action.permits()).count() as u64;
        assert_eq!(checker.stats().denials, denied);
        assert_eq!(ring.events_published() + ring.events_dropped(), denied);
    }

    #[test]
    fn dag_engine_denials_carry_closed_form_provenance() {
        let mut gen = ProfileGenerator::new("app");
        gen.observe(&req(39, &[]));
        let profile = gen.emit(ProfileKind::SyscallNoargs);
        let mut checker = analyzed(&profile, EngineKind::Dag);
        let ring = Arc::new(AuditRing::with_capacity(8));
        checker.enable_audit(Arc::clone(&ring), 2);

        let denied = checker.check(&req(99, &[0, 0, 0]));
        assert!(!denied.action.permits());
        let mut events = Vec::new();
        ring.drain(&mut events);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].engine, AuditEngine::Dag);
        if let CheckPath::FilterRun { insns: 0 } = denied.path {
            assert_eq!(events[0].provenance, AuditProvenance::DagClosed);
        } else {
            assert_eq!(events[0].provenance, AuditProvenance::Vm);
        }
    }

    #[test]
    fn cache_verdicts_match_oracle_on_docker() {
        let profile = docker_default();
        let mut checker = DracoChecker::from_profile(&profile).unwrap();
        let reqs = [
            req(0, &[3, 0, 100]),
            req(135, &[0xffff_ffff, 0, 0]),
            req(135, &[0x1234, 0, 0]),
            req(101, &[0, 0, 0]),
            req(0, &[3, 0, 100]),
            req(135, &[0xffff_ffff, 0, 0]),
        ];
        for r in &reqs {
            let got = checker.check(r);
            assert_eq!(got.action, profile.evaluate(r), "{r}");
        }
        assert!(checker.stats().cache_hit_rate() > 0.0);
    }

    #[test]
    fn preload_makes_first_check_a_hit() {
        let profile = docker_default();
        let mut checker = DracoChecker::from_profile(&profile).unwrap();
        checker.preload_spt();
        // read has no arg checks in docker-default → SPT hit immediately.
        let r = checker.check(&req(0, &[3, 0, 100]));
        assert_eq!(r.path, CheckPath::SptHit);
        // personality has arg checks → first value still needs the filter.
        let r = checker.check(&req(135, &[0xffff_ffff, 0, 0]));
        assert!(matches!(r.path, CheckPath::FilterRun { .. }));
        let r = checker.check(&req(135, &[0xffff_ffff, 0, 0]));
        assert_eq!(r.path, CheckPath::VatHit);
    }

    #[test]
    fn flush_forgets_everything() {
        let mut gen = ProfileGenerator::new("app");
        gen.observe(&req(39, &[]));
        let profile = gen.emit(ProfileKind::SyscallNoargs);
        let mut checker = DracoChecker::from_profile(&profile).unwrap();
        checker.check(&req(39, &[]));
        checker.flush();
        let r = checker.check(&req(39, &[]));
        assert!(matches!(r.path, CheckPath::FilterRun { .. }));
    }

    #[test]
    fn interpreted_engine_costs_more_same_verdict() {
        let profile = docker_default();
        let mut interp =
            DracoChecker::from_profile_with_engine(&profile, EngineKind::Interpreted).unwrap();
        let mut compiled = DracoChecker::from_profile(&profile).unwrap();
        let r = req(231, &[0]);
        let a = interp.check(&r);
        let b = compiled.check(&r);
        assert_eq!(a.action, b.action);
        // Identical instruction counts (the engines are semantically
        // identical; only wall-clock differs).
        assert_eq!(a.path, b.path);
    }

    #[test]
    fn install_additional_restricts_and_flushes() {
        let mut gen = ProfileGenerator::new("app");
        gen.observe(&req(0, &[3, 0, 64]));
        gen.observe(&req(1, &[4, 0, 64]));
        let base = gen.emit(ProfileKind::SyscallNoargs);
        let mut checker = DracoChecker::from_profile(&base).unwrap();
        // Warm both syscalls.
        assert!(checker.check(&req(0, &[3, 0, 64])).action.permits());
        assert!(checker.check(&req(1, &[4, 0, 64])).action.permits());
        assert!(checker.check(&req(1, &[4, 0, 64])).path.is_cache_hit());

        // A second filter that only allows read.
        let mut gen2 = ProfileGenerator::new("tighter");
        gen2.observe(&req(0, &[3, 0, 64]));
        let extra = gen2.emit(ProfileKind::SyscallNoargs);
        checker.install_additional(&extra).unwrap();

        // write is now denied — including the previously cached pair.
        assert!(!checker.check(&req(1, &[4, 0, 64])).action.permits());
        // read revalidates from cold, then caches again.
        let r = checker.check(&req(0, &[3, 0, 64]));
        assert!(r.action.permits());
        assert!(!r.path.is_cache_hit(), "tables were flushed");
        assert!(checker.check(&req(0, &[3, 0, 64])).path.is_cache_hit());
        assert!(checker.profile().name().contains('+'));
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
        let mut checker = DracoChecker::from_profile(&base).unwrap();
        checker.install_additional(&extra).unwrap();
        for nr in [0u16, 1, 3, 57, 135, 200] {
            for v in [0u64, 0xffff_ffff] {
                let r = req(nr, &[v, 0, 0]);
                assert_eq!(
                    checker.check(&r).action.permits(),
                    oracle.evaluate(&r).permits(),
                    "{r}"
                );
            }
        }
    }

    #[test]
    fn dag_engine_matches_compiled_engine_decisions() {
        for profile in [
            docker_default(),
            draco_profiles::gvisor_default(),
            draco_profiles::firecracker(),
        ] {
            let mut dag =
                DracoChecker::from_profile_with_engine(&profile, EngineKind::Dag).unwrap();
            let mut compiled = DracoChecker::from_profile(&profile).unwrap();
            assert_eq!(dag.engine_kind(), EngineKind::Dag);
            assert_eq!(compiled.engine_kind(), EngineKind::Compiled);
            for nr in (0u16..512).step_by(7).chain([0, 1, 56, 57, 101, 135, 435]) {
                for args in [
                    [0u64, 0, 0, 0, 0, 0],
                    [3, 0, 64, 0, 0, 0],
                    [0xffff_ffff, 0, 0, 0, 0, 0],
                    [0x0002_0008, 0, 0, 0, 0, 0],
                    [u64::MAX, u64::MAX, u64::MAX, 0, 0, 0],
                ] {
                    let r = SyscallRequest::new(1, SyscallId::new(nr), ArgSet::from_slice(&args));
                    // Flush both so every check exercises the miss-path
                    // engine, not the SPT/VAT caches.
                    dag.flush();
                    compiled.flush();
                    assert_eq!(
                        dag.check(&r).action,
                        compiled.check(&r).action,
                        "{} {r}",
                        profile.name()
                    );
                }
            }
        }
    }

    #[test]
    fn dag_engine_batch_matches_scalar_compiled() {
        let profile = draco_profiles::gvisor_default();
        let mut dag = DracoChecker::from_profile_with_engine(&profile, EngineKind::Dag).unwrap();
        let mut compiled = DracoChecker::from_profile(&profile).unwrap();
        let reqs: Vec<SyscallRequest> = (0u16..256)
            .flat_map(|nr| {
                [[0u64, 0, 0], [0xffff_ffff, 0, 0], [3, 0, 64]].into_iter().map(move |a| {
                    SyscallRequest::new(1, SyscallId::new(nr), ArgSet::from_slice(&a))
                })
            })
            .collect();
        let mut out = vec![Decision::KILLED; reqs.len()];
        dag.check_batch(&reqs, &mut out);
        for (r, d) in reqs.iter().zip(&out) {
            assert_eq!(d.action, compiled.check(r).action, "{r}");
        }
    }

    #[test]
    fn install_additional_preserves_dag_engine() {
        let mut gen = ProfileGenerator::new("app");
        gen.observe(&req(0, &[3, 0, 64]));
        gen.observe(&req(1, &[4, 0, 64]));
        let base = gen.emit(ProfileKind::SyscallNoargs);
        let mut checker = DracoChecker::from_profile_with_engine(&base, EngineKind::Dag).unwrap();

        let mut gen2 = ProfileGenerator::new("tighter");
        gen2.observe(&req(0, &[3, 0, 64]));
        let extra = gen2.emit(ProfileKind::SyscallNoargs);
        checker.install_additional(&extra).unwrap();

        assert_eq!(checker.engine_kind(), EngineKind::Dag);
        assert!(checker.check(&req(0, &[3, 0, 64])).action.permits());
        assert!(!checker.check(&req(1, &[4, 0, 64])).action.permits());
    }

    #[test]
    fn metrics_reflect_check_traffic() {
        let profile = docker_default();
        let mut checker = DracoChecker::from_profile(&profile).unwrap();
        checker.preload_spt();
        checker.check(&req(0, &[3, 0, 100])); // spt hit
        checker.check(&req(135, &[0xffff_ffff, 0, 0])); // filter + insert
        checker.check(&req(135, &[0xffff_ffff, 0, 0])); // vat hit
        let m = checker.metrics();
        assert_eq!(m.checker.spt_hits, checker.stats().spt_hits);
        assert_eq!(m.checker.vat_hits, 1);
        assert_eq!(m.checker.filter_runs, 1);
        assert_eq!(
            m.checker.insns_per_filter_run.count(),
            1,
            "one sample per fallback"
        );
        assert_eq!(
            m.checker.saved_insns_per_hit.count(),
            2,
            "one sample per cached hit"
        );
        assert_eq!(m.cuckoo.hits, 1, "VAT table traffic aggregated");
        assert!(m.vat.tables >= 1);
        assert_eq!(m.sim, draco_obs::SimMetrics::default(), "not our section");
        assert_eq!(m.replay.checks, 0, "not our section");
    }

    #[test]
    fn flow_trace_records_recent_classifications() {
        let profile = docker_default();
        let mut checker = DracoChecker::from_profile(&profile).unwrap();
        assert!(checker.flow_trace().is_none(), "off by default");
        checker.enable_flow_trace(4);
        checker.preload_spt();
        checker.check(&req(0, &[3, 0, 100])); // spt hit
        checker.check(&req(135, &[0xffff_ffff, 0, 0])); // filter allow
        checker.check(&req(135, &[0xffff_ffff, 0, 0])); // vat hit
        checker.check(&req(999, &[0, 0, 0])); // deny
        let ring = checker.flow_trace().expect("enabled");
        let classes: Vec<FlowClass> = ring.iter_recent().map(|e| e.class).collect();
        assert_eq!(
            classes,
            vec![
                FlowClass::SptHit,
                FlowClass::FilterAllow,
                FlowClass::VatHit,
                FlowClass::FilterDeny
            ]
        );
        let syscalls: Vec<u16> = ring.iter_recent().map(|e| e.syscall).collect();
        assert_eq!(syscalls, vec![0, 135, 135, 999]);
        checker.disable_flow_trace();
        assert!(checker.flow_trace().is_none());
    }

    #[test]
    fn span_trace_records_staged_check_pipeline() {
        let profile = docker_default();
        let mut checker = DracoChecker::from_profile(&profile).unwrap();
        assert!(checker.span_tracer().is_none(), "off by default");
        checker.enable_span_trace(1024, 1); // sample every check
        checker.preload_spt();
        checker.check(&req(0, &[3, 0, 100])); // spt hit
        checker.check(&req(135, &[0xffff_ffff, 0, 0])); // filter + insert
        checker.check(&req(135, &[0xffff_ffff, 0, 0])); // vat hit
        checker.check(&req(999, &[0, 0, 0])); // deny

        let tracer = checker.span_tracer().expect("installed");
        assert_eq!(tracer.sampled_checks(), 4);
        let spans = tracer.spans();
        let stages: Vec<Stage> = spans.iter().map(|s| s.stage).collect();
        // Every check starts at the SPT.
        assert_eq!(spans.iter().filter(|s| s.stage == Stage::SptLookup).count(), 4);
        // The miss ran the filter and refilled the VAT...
        assert!(stages.contains(&Stage::FilterExec));
        assert!(stages.contains(&Stage::VatInsert));
        // ...and the re-encounter hashed and probed.
        assert!(stages.contains(&Stage::CrcHash));
        assert!(stages.contains(&Stage::VatProbeWay1));
        // Spans carry the flow class of their whole check.
        assert!(spans
            .iter()
            .any(|s| s.stage == Stage::SptLookup && s.class == FlowClass::SptHit));
        assert!(spans
            .iter()
            .any(|s| s.stage == Stage::FilterExec && s.class == FlowClass::FilterDeny));
        assert!(spans
            .iter()
            .any(|s| s.stage == Stage::CrcHash && s.class == FlowClass::VatHit));

        // Taking the tracer detaches it; checks keep working untraced.
        let taken = checker.take_span_tracer().expect("taken");
        assert!(!taken.spans().is_empty());
        assert!(checker.span_tracer().is_none());
        assert!(checker.check(&req(0, &[3, 0, 100])).path.is_cache_hit());
    }

    #[test]
    fn traced_and_untraced_checks_agree_on_results_and_metrics() {
        let profile = docker_default();
        let mut plain = DracoChecker::from_profile(&profile).unwrap();
        let mut traced = DracoChecker::from_profile(&profile).unwrap();
        traced.enable_span_trace(4096, 1);
        let reqs = [
            req(0, &[3, 0, 100]),
            req(135, &[0xffff_ffff, 0, 0]),
            req(135, &[0xffff_ffff, 0, 0]),
            req(135, &[0x1234, 0, 0]),
            req(999, &[0, 0, 0]),
            req(0, &[3, 0, 100]),
        ];
        for r in &reqs {
            assert_eq!(traced.check(r), plain.check(r), "{r}");
        }
        assert_eq!(traced.metrics(), plain.metrics(), "identical registries");
    }

    #[test]
    fn saved_insns_tracks_mean_fallback_cost() {
        let profile = docker_default();
        let mut checker = DracoChecker::from_profile(&profile).unwrap();
        checker.preload_spt();
        // Before any filter run the credited saving is 0.
        checker.check(&req(0, &[3, 0, 100]));
        assert_eq!(checker.metrics().checker.saved_insns_per_hit.sum, 0);
        // After a fallback, hits are credited with its mean cost.
        let r = checker.check(&req(135, &[0xffff_ffff, 0, 0]));
        let insns = match r.path {
            CheckPath::FilterRun { insns } => insns,
            other => panic!("expected filter run, got {other:?}"),
        };
        checker.check(&req(135, &[0xffff_ffff, 0, 0])); // vat hit
        let m = checker.metrics();
        assert_eq!(m.checker.saved_insns_per_hit.count(), 2);
        assert_eq!(m.checker.saved_insns_per_hit.sum, insns);
    }

    #[test]
    fn analyzed_checker_agrees_with_plain_and_oracle() {
        let profile = docker_default();
        let mut plain = DracoChecker::from_profile(&profile).unwrap();
        let mut analyzed = analyzed(&profile, EngineKind::Compiled);
        plain.preload_spt();
        analyzed.preload_spt();
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
            let a = analyzed.check(r);
            let b = plain.check(r);
            assert_eq!(a.action, b.action, "{r}");
            assert_eq!(a.action, profile.evaluate(r), "{r}");
        }
    }

    #[test]
    fn analysis_plan_counts_always_allow_hits_and_mask_agreement() {
        let profile = docker_default();
        let mut checker = analyzed(&profile, EngineKind::Compiled);
        assert!(checker.has_analysis());
        checker.preload_spt();
        checker.check(&req(0, &[3, 0, 100])); // read: proven always-allow
        checker.check(&req(135, &[0xffff_ffff, 0, 0])); // filter + insert
        checker.check(&req(135, &[0xffff_ffff, 0, 0])); // vat hit
        let stats = checker.stats();
        assert_eq!(stats.spt_hits, 1);
        assert_eq!(stats.always_allow_hits, 1);
        let m = checker.metrics();
        assert_eq!(m.checker.always_allow_hits, 1);
        assert!(
            m.checker.masks_derived_match > 0,
            "docker's authored arg masks derive exactly"
        );
        assert_eq!(m.checker.masks_overridden, 0);
        // A planless checker reports no analysis counters.
        let plain = DracoChecker::from_profile(&profile).unwrap();
        assert!(!plain.has_analysis());
        assert_eq!(plain.metrics().checker.masks_derived_match, 0);
        assert_eq!(plain.stats().always_allow_hits, 0);
    }

    #[test]
    fn proven_always_allow_whitelist_skips_the_vat_entirely() {
        use draco_profiles::{RuleSource, SyscallRule};
        use draco_syscalls::ArgBitmask;
        // A whitelist whose mask selects no bytes compiles to a filter
        // that allows every argument vector. The analyzer proves it, so
        // the plan caches the syscall ID-only: no VAT table, no CRC.
        let mut profile =
            draco_profiles::ProfileSpec::new("degenerate", SeccompAction::KillProcess);
        profile.allow(
            SyscallId::new(0),
            SyscallRule {
                args: ArgPolicy::whitelist(ArgBitmask::EMPTY, vec![ArgSet::from_slice(&[7])]),
                source: RuleSource::Runtime,
            },
        );
        profile.allow(
            SyscallId::new(1),
            SyscallRule {
                args: ArgPolicy::whitelist(
                    ArgBitmask::from_widths([4, 0, 0, 0, 0, 0]),
                    vec![ArgSet::from_slice(&[7])],
                ),
                source: RuleSource::Runtime,
            },
        );
        let mut analyzed = analyzed(&profile, EngineKind::Compiled);
        analyzed.preload_spt();
        let r = analyzed.check(&req(0, &[123, 9, 9]));
        assert_eq!(r.path, CheckPath::SptHit, "no filter, no VAT probe");
        assert_eq!(analyzed.stats().always_allow_hits, 1);
        assert_eq!(
            analyzed.metrics().vat.tables,
            1,
            "only the argument-dependent syscall owns a VAT table"
        );
        // Planless, the same preloaded check still pays a VAT miss and a
        // filter run before it can cache the argument set.
        let mut plain = DracoChecker::from_profile(&profile).unwrap();
        plain.preload_spt();
        let r = plain.check(&req(0, &[123, 9, 9]));
        assert!(matches!(r.path, CheckPath::FilterRun { .. }));
        assert_eq!(plain.metrics().vat.tables, 2);
    }

    #[test]
    fn install_additional_rederives_the_analysis_plan() {
        let mut checker = analyzed(&docker_default(), EngineKind::Compiled);
        let mut gen = ProfileGenerator::new("tighter");
        gen.observe(&req(0, &[3, 0, 64]));
        let extra = gen.emit(ProfileKind::SyscallNoargs);
        checker.install_additional(&extra).unwrap();
        assert!(checker.has_analysis(), "plan survives filter attach");
        checker.preload_spt();
        // read stays allowed under the intersection and is still proven.
        let r = checker.check(&req(0, &[3, 0, 64]));
        assert_eq!(r.path, CheckPath::SptHit);
        assert_eq!(checker.stats().always_allow_hits, 1);
        // write is outside the intersection.
        assert!(!checker.check(&req(1, &[4, 0, 64])).action.permits());
    }

    #[test]
    #[should_panic(expected = "analysis plan must match")]
    fn installing_a_foreign_analysis_is_rejected() {
        let mut checker = DracoChecker::from_profile(&docker_default()).unwrap();
        let analysis = analyze_profile(&draco_profiles::gvisor_default()).unwrap();
        checker.install_analysis(&analysis);
    }

    #[test]
    fn display_summarizes() {
        let profile = docker_default();
        let checker = DracoChecker::from_profile(&profile).unwrap();
        assert!(checker.to_string().contains("docker-default"));
    }
}
