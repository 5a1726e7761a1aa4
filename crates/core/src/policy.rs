//! The installed policy and the miss path both checkers share.
//!
//! A [`Policy`] bundles what a filter install establishes: the profile,
//! its compiled miss-path engine and the optional analysis plan. It is
//! immutable once built — attaching another filter builds a new one —
//! so the per-process checker and every thread of a shared process hold
//! it behind an `Arc`, and a fork shares its parent's policy without
//! recompiling anything (paper §VII-B: the child inherits the filter,
//! not the cached validations).

use core::fmt;

use draco_bpf::{SeccompAction, SeccompData};
use draco_obs::{
    AuditDecision, AuditEngine, AuditEvent, AuditProvenance, AuditRing, Stage, TraceScope,
};
use draco_profiles::{
    analyze_profile, compile_dag, compile_stacked, ArgPolicy, CompiledStack, DagStack,
    FilterLayout, FilterStack, MaskAgreement, ProfileAnalysis, ProfileSpec, StackOutcome,
    SyscallRule,
};
use draco_syscalls::{ArgBitmask, SyscallId, SyscallRequest, SyscallTable};

use crate::stats::Counters;
use crate::{CheckPath, CheckResult, DracoError};

/// How the fallback Seccomp filter stack is executed.
#[derive(Debug)]
pub(crate) enum FilterEngine {
    /// The reference interpreter (kernel with BPF JIT disabled).
    Interpreted(FilterStack),
    /// The pre-decoded executor (kernel with BPF JIT enabled).
    Compiled(CompiledStack),
    /// The specializing decision DAG (`draco-bpf::dag`): per-syscall
    /// mask/compare chains with exact VM fallback.
    Dag(DagStack),
}

/// Selects the miss-path filter engine at construction time
/// ([`DracoChecker::from_profile_with_engine`](crate::DracoChecker::from_profile_with_engine)
/// and the spawn variants on `DracoProcess` / `SharedDracoProcess`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Interpreted cBPF (kernel with BPF JIT disabled).
    Interpreted,
    /// Pre-decoded cBPF ops (kernel JIT model).
    #[default]
    Compiled,
    /// Specialized decision DAG.
    Dag,
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineKind::Interpreted => write!(f, "interpreted"),
            EngineKind::Compiled => write!(f, "compiled"),
            EngineKind::Dag => write!(f, "dag"),
        }
    }
}

/// Builds the security-audit event for one denying verdict, or `None`
/// if `action` permits the call (nothing to audit).
///
/// The provenance records whether the specialized decision DAG closed
/// the verdict by itself — a DAG engine that executed zero VM
/// instructions — or the concrete cBPF VM decided (every other case,
/// including DAG nodes that fell back). The miss path both checkers
/// share emits it, so identical verdicts produce identical events.
pub fn deny_audit_event(
    source: u16,
    req: &SyscallRequest,
    action: SeccompAction,
    engine: EngineKind,
    insns_executed: u64,
) -> Option<AuditEvent> {
    let decision = match action {
        SeccompAction::Allow | SeccompAction::Log => return None,
        SeccompAction::Errno(e) => AuditDecision::Errno(e),
        SeccompAction::Trap => AuditDecision::Trap,
        SeccompAction::Trace(d) => AuditDecision::Trace(d),
        SeccompAction::KillThread => AuditDecision::KillThread,
        SeccompAction::KillProcess => AuditDecision::KillProcess,
    };
    let engine = match engine {
        EngineKind::Interpreted => AuditEngine::Interpreted,
        EngineKind::Compiled => AuditEngine::Compiled,
        EngineKind::Dag => AuditEngine::Dag,
    };
    let provenance = if engine == AuditEngine::Dag && insns_executed == 0 {
        AuditProvenance::DagClosed
    } else {
        AuditProvenance::Vm
    };
    Some(AuditEvent {
        source,
        syscall: req.id.as_u16(),
        decision,
        engine,
        provenance,
    })
}

impl FilterEngine {
    fn run(&self, data: &SeccompData) -> Result<StackOutcome, draco_bpf::BpfError> {
        match self {
            FilterEngine::Interpreted(stack) => stack.run(data),
            FilterEngine::Compiled(stack) => stack.run(data),
            FilterEngine::Dag(stack) => stack.run(data),
        }
    }

    /// The flavor of this engine, preserved across policy swaps.
    pub(crate) const fn kind(&self) -> EngineKind {
        match self {
            FilterEngine::Interpreted(_) => EngineKind::Interpreted,
            FilterEngine::Compiled(_) => EngineKind::Compiled,
            FilterEngine::Dag(_) => EngineKind::Dag,
        }
    }

    /// Builds the engine of the given kind for a profile.
    fn build(profile: &ProfileSpec, kind: EngineKind) -> Result<Self, DracoError> {
        Ok(match kind {
            EngineKind::Interpreted => FilterEngine::Interpreted(
                compile_stacked(profile, FilterLayout::Linear)
                    .map_err(DracoError::FilterCompile)?,
            ),
            EngineKind::Compiled => FilterEngine::Compiled(
                compile_stacked(profile, FilterLayout::Linear)
                    .map_err(DracoError::FilterCompile)?
                    .compiled(),
            ),
            EngineKind::Dag => {
                FilterEngine::Dag(compile_dag(profile).map_err(DracoError::FilterCompile)?)
            }
        })
    }
}

/// Per-syscall facts proved by the filter analyzer
/// ([`draco_profiles::analyze_profile`]), reshaped for O(1) hot-path
/// consultation: both vectors are indexed by raw syscall number.
///
/// Soundness: the plan only ever *narrows* what gets cached. A syscall
/// marked always-allow was proved (by abstract interpretation, checked
/// against the concrete VM) to take the Allow return for **every**
/// argument vector, so caching it with an empty bitmask replays a
/// verdict the filter is guaranteed to reach. A derived mask is
/// installed only when it matches or is a subset of the authored mask,
/// and covers — by the analyzer's taint proof — every argument byte the
/// filter's decision can depend on.
#[derive(Debug)]
pub(crate) struct AnalysisPlan {
    /// Syscalls proven `Allow` for every argument vector. Hits need
    /// neither CRC hashing nor a VAT probe.
    always_allow: Vec<bool>,
    /// Effective argument bitmask per syscall: analyzer-derived unless
    /// it disagreed with the authored mask (authored wins then).
    masks: Vec<Option<ArgBitmask>>,
    /// Whitelist rules whose derived mask matched or narrowed the
    /// authored one.
    pub(crate) derived_match: u64,
    /// Whitelist rules where the authored mask overrode a disagreeing
    /// derived mask.
    pub(crate) overridden: u64,
}

impl AnalysisPlan {
    fn from_analysis(analysis: &ProfileAnalysis, capacity: usize) -> Self {
        let mut plan = AnalysisPlan {
            always_allow: vec![false; capacity],
            masks: vec![None; capacity],
            derived_match: 0,
            overridden: 0,
        };
        for report in analysis.syscalls() {
            let idx = report.sid.as_u16() as usize;
            if idx >= capacity {
                continue;
            }
            if report.is_always_allow() {
                plan.always_allow[idx] = true;
            }
            plan.masks[idx] = Some(report.effective_mask());
            if report.authored_mask.is_some() {
                match report.agreement {
                    MaskAgreement::Match | MaskAgreement::DerivedNarrower => {
                        plan.derived_match += 1;
                    }
                    MaskAgreement::Disagreement => plan.overridden += 1,
                }
            }
        }
        plan
    }

    fn always_allows(&self, id: SyscallId) -> bool {
        self.always_allow
            .get(id.as_u16() as usize)
            .copied()
            .unwrap_or(false)
    }

    fn mask(&self, id: SyscallId) -> Option<ArgBitmask> {
        self.masks.get(id.as_u16() as usize).copied().flatten()
    }
}

/// The installed policy: profile, compiled miss-path engine, and the
/// optional analysis plan — everything a filter install or
/// `install_additional` replaces at once.
#[derive(Debug)]
pub(crate) struct Policy {
    pub(crate) profile: ProfileSpec,
    pub(crate) filter: FilterEngine,
    pub(crate) plan: Option<AnalysisPlan>,
}

impl Policy {
    /// Compiles `profile` for the given engine, with no analysis plan.
    pub(crate) fn build(profile: ProfileSpec, kind: EngineKind) -> Result<Self, DracoError> {
        let filter = FilterEngine::build(&profile, kind)?;
        Ok(Policy {
            profile,
            filter,
            plan: None,
        })
    }

    /// Installs the plan derived from `analysis`, which **must** come
    /// from [`draco_profiles::analyze_profile`] /
    /// [`draco_profiles::analyze_stack`] over this policy's profile —
    /// enforced by name.
    ///
    /// # Panics
    ///
    /// Panics if the analysis was computed for a different profile.
    pub(crate) fn install_analysis(&mut self, analysis: &ProfileAnalysis) {
        assert_eq!(
            analysis.name(),
            self.profile.name(),
            "analysis plan must match the installed profile"
        );
        let capacity = SyscallTable::shared().capacity();
        self.plan = Some(AnalysisPlan::from_analysis(analysis, capacity));
    }

    /// The policy after attaching `extra`, as `seccomp(2)` lets a running
    /// process do: the intersection of both profiles (kernel
    /// most-restrictive combining), compiled for the same engine flavor,
    /// with the analysis plan re-derived for it if this policy had one —
    /// the old plan proved facts about the *previous* filter.
    pub(crate) fn intersect(&self, extra: &ProfileSpec) -> Result<Self, DracoError> {
        let mut combined = Policy::build(self.profile.intersect(extra), self.filter.kind())?;
        if self.plan.is_some() {
            let analysis = analyze_profile(&combined.profile).map_err(DracoError::FilterCompile)?;
            combined.install_analysis(&analysis);
        }
        Ok(combined)
    }

    /// Whether the analysis plan proved `id` always-allowed.
    pub(crate) fn always_allows(&self, id: SyscallId) -> bool {
        self.plan
            .as_ref()
            .is_some_and(|plan| plan.always_allows(id))
    }

    /// How a validated syscall gets cached: the bitmask to store in the
    /// SPT and, for argument-checked syscalls, the VAT table size.
    ///
    /// Without an analysis plan this is exactly the authored rule: a
    /// whitelist caches its argument sets, any other rule caches the ID
    /// alone. With a plan, a proven always-allow syscall caches as
    /// ID-only (empty mask, no VAT) even under a whitelist rule, and
    /// whitelisted syscalls key their VAT entries on the analyzer's
    /// effective mask.
    pub(crate) fn cache_plan(
        &self,
        id: SyscallId,
        rule: &SyscallRule,
    ) -> (ArgBitmask, Option<usize>) {
        if self.always_allows(id) {
            return (ArgBitmask::EMPTY, None);
        }
        match &rule.args {
            ArgPolicy::Whitelist { mask, sets } => {
                let mask = self
                    .plan
                    .as_ref()
                    .and_then(|plan| plan.mask(id))
                    .unwrap_or(*mask);
                (mask, Some(sets.len()))
            }
            _ => (ArgBitmask::EMPTY, None),
        }
    }

    /// The miss path both checkers share: runs the filter, counts the
    /// run (and a denial), and offers a denial to `audit` tagged with
    /// its source id. The caller caches a permit in its own tables.
    pub(crate) fn run_filter(
        &self,
        req: &SyscallRequest,
        counters: &mut Counters,
        audit: Option<(&AuditRing, u16)>,
        scope: &mut TraceScope<'_>,
    ) -> CheckResult {
        let data = SeccompData::from_request(req);
        let t = scope.stage_begin();
        let outcome = self
            .filter
            .run(&data)
            .expect("profile-generated filters cannot fault");
        scope.stage_end(Stage::FilterExec, t);
        counters.stats.filter_runs += 1;
        counters.stats.filter_insns += outcome.insns_executed;
        counters.insns_per_filter_run.record(outcome.insns_executed);
        if !outcome.action.permits() {
            counters.stats.denials += 1;
            if let Some((ring, source)) = audit {
                if let Some(event) = deny_audit_event(
                    source,
                    req,
                    outcome.action,
                    self.filter.kind(),
                    outcome.insns_executed,
                ) {
                    ring.offer(event);
                }
            }
        }
        CheckResult {
            action: outcome.action,
            path: CheckPath::FilterRun {
                insns: outcome.insns_executed,
            },
        }
    }
}
