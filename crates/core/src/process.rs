//! Per-process Draco state.
//!
//! The OS owns one SPT/VAT pair per process (paper §V: "the SPT contains
//! information for one process", and §VII-A: "The OS kernel is
//! responsible for filling the VAT of each process"). `DracoProcess`
//! bundles a checker with a process identity, enforces the
//! profile-immutability rule (§VII-B: "system call filters are not
//! modified during process runtime"), and provides fork semantics.

use core::fmt;

use draco_profiles::{ProfileAnalysis, ProfileSpec};
use draco_syscalls::SyscallRequest;

use crate::{CheckResult, CheckerStats, Decision, DracoChecker, DracoError, EngineKind};

/// A process identifier.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(pub u32);

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid:{}", self.0)
    }
}

/// A process with an installed, immutable Draco-backed profile.
///
/// # Example
///
/// ```
/// use draco_core::{DracoProcess, ProcessId};
/// use draco_profiles::firecracker;
///
/// let mut p = DracoProcess::spawn(ProcessId(1), &firecracker())?;
/// assert_eq!(p.pid(), ProcessId(1));
/// # Ok::<(), draco_core::DracoError>(())
/// ```
#[derive(Debug)]
pub struct DracoProcess {
    pid: ProcessId,
    checker: DracoChecker,
    alive: bool,
}

impl DracoProcess {
    /// Creates a process with the given profile installed.
    ///
    /// # Errors
    ///
    /// Returns [`DracoError`] if the profile's filter fails to compile.
    pub fn spawn(pid: ProcessId, profile: &ProfileSpec) -> Result<Self, DracoError> {
        Self::spawn_with_engine(pid, profile, EngineKind::Compiled)
    }

    /// Creates a process like [`DracoProcess::spawn`] with an explicit
    /// miss-path filter engine (e.g. [`EngineKind::Dag`] for the
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
        Ok(DracoProcess {
            pid,
            checker: DracoChecker::from_profile_with_engine(profile, kind)?,
            alive: true,
        })
    }

    /// Creates a process with the profile installed *and* a precomputed
    /// filter-analysis plan: the OS analyzed the filter at install time
    /// (once per profile, shareable across processes), preloaded the
    /// SPT, and proven always-allow syscalls take the no-VAT fast path
    /// from their very first call.
    ///
    /// # Errors
    ///
    /// Returns [`DracoError`] if the profile's filter fails to compile.
    ///
    /// # Panics
    ///
    /// Panics if `analysis` was computed for a different profile (see
    /// [`DracoChecker::install_analysis`]).
    pub fn spawn_analyzed(
        pid: ProcessId,
        profile: &ProfileSpec,
        analysis: &ProfileAnalysis,
    ) -> Result<Self, DracoError> {
        Self::spawn_analyzed_with_engine(pid, profile, analysis, EngineKind::Compiled)
    }

    /// Like [`DracoProcess::spawn_analyzed`] with an explicit miss-path
    /// filter engine.
    ///
    /// # Errors
    ///
    /// Returns [`DracoError`] if the profile's filter fails to compile.
    ///
    /// # Panics
    ///
    /// Panics if `analysis` was computed for a different profile (see
    /// [`DracoChecker::install_analysis`]).
    pub fn spawn_analyzed_with_engine(
        pid: ProcessId,
        profile: &ProfileSpec,
        analysis: &ProfileAnalysis,
        kind: EngineKind,
    ) -> Result<Self, DracoError> {
        let mut checker = DracoChecker::from_profile_with_engine(profile, kind)?;
        checker.install_analysis(analysis);
        checker.preload_spt();
        Ok(DracoProcess {
            pid,
            checker,
            alive: true,
        })
    }

    /// The process ID.
    pub const fn pid(&self) -> ProcessId {
        self.pid
    }

    /// Whether the process is still running (a `KillProcess` verdict
    /// terminates it).
    pub const fn is_alive(&self) -> bool {
        self.alive
    }

    /// The installed profile (immutable for the process lifetime).
    pub fn profile(&self) -> &ProfileSpec {
        self.checker.profile()
    }

    /// The underlying checker.
    pub fn checker(&self) -> &DracoChecker {
        &self.checker
    }

    /// Mutable access to the checker, for configuring observability
    /// (flow ring, span tracer) on an owned process.
    pub fn checker_mut(&mut self) -> &mut DracoChecker {
        &mut self.checker
    }

    /// Accumulated counters.
    pub fn stats(&self) -> CheckerStats {
        self.checker.stats()
    }

    /// Issues one system call through the checker.
    ///
    /// A `KillProcess`/`KillThread` verdict marks the process dead;
    /// further calls keep returning the denial without reaching the
    /// checker.
    pub fn syscall(&mut self, req: &SyscallRequest) -> CheckResult {
        if !self.alive {
            return CheckResult::KILLED;
        }
        let result = self.checker.check(req);
        if result.kills() {
            self.alive = false;
        }
        result
    }

    /// Issues a whole batch of system calls through the staged batch
    /// path, producing exactly the decisions — and exactly the stats —
    /// of a loop over [`DracoProcess::syscall`]: the checker's commit
    /// walk stops at the first kill verdict, the process dies there,
    /// and every later slot reports the dead-process verdict without
    /// reaching the checker.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != reqs.len()`.
    pub fn syscall_batch(&mut self, reqs: &[SyscallRequest], out: &mut [Decision]) {
        assert_eq!(reqs.len(), out.len(), "one decision slot per request");
        let mut start = 0;
        while start < reqs.len() {
            if !self.alive {
                out[start..].fill(CheckResult::KILLED);
                return;
            }
            start += self
                .checker
                .check_batch_segment(&reqs[start..], &mut out[start..]);
            if out[start - 1].kills() {
                self.alive = false;
            }
        }
    }

    /// Forks the process: the child inherits the installed policy —
    /// profile, engine flavor and analysis plan, shared with the parent
    /// so nothing is recompiled — but starts with cold, un-preloaded
    /// tables (paper §VII-B: a fresh kernel would lazily rebuild them;
    /// starting cold is the conservative model and exercises Draco's
    /// warm-up).
    pub fn fork(&self, child_pid: ProcessId) -> DracoProcess {
        DracoProcess {
            pid: child_pid,
            checker: self.checker.fork(),
            alive: true,
        }
    }
}

impl fmt::Display for DracoProcess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.pid, self.checker.profile().name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use draco_profiles::{gvisor_default, ProfileGenerator, ProfileKind};
    use draco_syscalls::{ArgSet, SyscallId};

    fn req(nr: u16, args: &[u64]) -> SyscallRequest {
        SyscallRequest::new(0, SyscallId::new(nr), ArgSet::from_slice(args))
    }

    #[test]
    fn kill_verdict_terminates_process() {
        let p = gvisor_default(); // default action: kill-process
        let mut proc = DracoProcess::spawn(ProcessId(7), &p).unwrap();
        assert!(proc.is_alive());
        let r = proc.syscall(&req(101, &[0, 0])); // ptrace: not allowed
        assert!(!r.action.permits());
        assert!(!proc.is_alive());
        // Subsequent calls short-circuit.
        let r2 = proc.syscall(&req(0, &[1, 2, 3]));
        assert!(!r2.action.permits());
        assert_eq!(proc.stats().total(), 1, "dead process checks nothing");
    }

    #[test]
    fn errno_verdict_keeps_process_alive() {
        let mut gen = ProfileGenerator::new("app");
        gen.observe(&req(0, &[1, 0, 1]));
        let mut profile = gen.emit(ProfileKind::SyscallNoargs);
        // Rebuild with errno default (like docker-default).
        let mut p = draco_profiles::ProfileSpec::new("t", draco_bpf::SeccompAction::Errno(1));
        for (id, rule) in profile.rules() {
            p.allow(id, rule.clone());
        }
        profile = p;
        let mut proc = DracoProcess::spawn(ProcessId(1), &profile).unwrap();
        let r = proc.syscall(&req(57, &[]));
        assert_eq!(r.action, draco_bpf::SeccompAction::Errno(1));
        assert!(proc.is_alive());
    }

    #[test]
    fn fork_starts_cold_with_same_profile() {
        let profile = gvisor_default();
        let mut parent = DracoProcess::spawn(ProcessId(1), &profile).unwrap();
        parent.syscall(&req(39, &[]));
        parent.syscall(&req(39, &[]));
        assert!(parent.stats().spt_hits > 0);
        let mut child = parent.fork(ProcessId(2));
        assert_eq!(child.pid(), ProcessId(2));
        assert_eq!(child.profile().name(), profile.name());
        // Child's first call is a cold miss.
        let r = child.syscall(&req(39, &[]));
        assert!(!r.path.is_cache_hit());
    }

    #[test]
    fn fork_keeps_the_vat_capacity_cap() {
        let requests: Vec<SyscallRequest> = (0..64u64).map(|i| req(0, &[i, 0xdead, 64])).collect();
        let mut gen = ProfileGenerator::new("many-read-sets");
        for r in &requests {
            gen.observe(r);
        }
        let profile = gen.emit(ProfileKind::SyscallComplete);
        let mut parent = DracoProcess::spawn(ProcessId(1), &profile).unwrap();
        *parent.checker_mut() = DracoChecker::from_profile(&profile)
            .unwrap()
            .with_vat_capacity_cap(4);
        let mut child = parent.fork(ProcessId(2));
        for r in &requests {
            assert!(child.syscall(r).action.permits());
        }
        let resident = child.checker().vat().resident_sets();
        assert!(
            0 < resident && resident <= 4,
            "child resident sets: {resident}"
        );
    }

    #[test]
    fn fork_keeps_the_engine_and_the_analysis_plan() {
        let profile = draco_profiles::docker_default();
        let analysis = draco_profiles::analyze_profile(&profile).unwrap();
        let mut parent = DracoProcess::spawn_analyzed_with_engine(
            ProcessId(1),
            &profile,
            &analysis,
            EngineKind::Dag,
        )
        .unwrap();
        let mut child = parent.fork(ProcessId(2));
        assert_eq!(child.checker().engine_kind(), EngineKind::Dag);
        assert!(
            child.checker().has_analysis(),
            "the analysis plan survives fork"
        );
        assert_eq!(
            child.checker().spt().valid_count(),
            0,
            "the child is not preloaded"
        );
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
            assert_eq!(child.syscall(r).action, parent.syscall(r).action, "{r}");
        }
        for r in &trace {
            assert_eq!(child.syscall(r), parent.syscall(r), "{r}");
        }
        assert!(
            child.stats().always_allow_hits > 0,
            "the child uses the proven fast path"
        );
    }

    #[test]
    fn spawn_analyzed_starts_warm_with_proven_fast_paths() {
        let profile = gvisor_default();
        let analysis = draco_profiles::analyze_profile(&profile).unwrap();
        let mut proc =
            DracoProcess::spawn_analyzed(ProcessId(3), &profile, &analysis).unwrap();
        // getpid carries no argument checks in gvisor-default, so the
        // preloaded, proven syscall hits the SPT on its *first* call.
        let r = proc.syscall(&req(39, &[]));
        assert!(r.path.is_cache_hit());
        assert!(proc.stats().always_allow_hits > 0);
        // Verdicts still match a plain process on both allowed and
        // denied traffic.
        let mut plain = DracoProcess::spawn(ProcessId(4), &profile).unwrap();
        for request in [req(39, &[]), req(0, &[1, 2, 3]), req(101, &[0, 0])] {
            assert_eq!(
                proc.syscall(&request).action,
                plain.syscall(&request).action,
                "{request}"
            );
        }
    }

    #[test]
    fn display_shows_pid_and_profile() {
        let proc = DracoProcess::spawn(ProcessId(42), &gvisor_default()).unwrap();
        let s = proc.to_string();
        assert!(s.contains("pid:42"));
        assert!(s.contains("gvisor"));
    }
}
