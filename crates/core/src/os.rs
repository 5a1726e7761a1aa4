//! A minimal OS layer multiplexing Draco-checked processes.
//!
//! The paper's kernel keeps one SPT/VAT pair per process (§V, §VII-A);
//! [`DracoOs`] models that ownership: a process table, spawn/fork/exec
//! lifecycle (exec replaces the process image, so it may install a new
//! profile — *installing* a filter is allowed; *modifying* a running
//! process's filter is not, per §VII-B), syscall dispatch by PID, and
//! fleet-wide statistics.

use std::collections::BTreeMap;
use std::fmt;

use draco_profiles::ProfileSpec;
use draco_syscalls::SyscallRequest;

use crate::{CheckResult, CheckerStats, DracoError, DracoProcess, ProcessId};

/// Errors from OS-level process operations.
#[derive(Debug)]
#[non_exhaustive]
pub enum OsError {
    /// No such process.
    NoSuchProcess(ProcessId),
    /// The PID is already in use.
    PidInUse(ProcessId),
    /// The underlying checker failed to build.
    Draco(DracoError),
}

impl fmt::Display for OsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OsError::NoSuchProcess(pid) => write!(f, "no such process {pid}"),
            OsError::PidInUse(pid) => write!(f, "{pid} already exists"),
            OsError::Draco(e) => write!(f, "checker construction failed: {e}"),
        }
    }
}

impl std::error::Error for OsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OsError::Draco(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DracoError> for OsError {
    fn from(e: DracoError) -> Self {
        OsError::Draco(e)
    }
}

/// The process table of a Draco-enabled kernel.
///
/// # Example
///
/// ```
/// use draco_core::{DracoOs, ProcessId};
/// use draco_profiles::docker_default;
/// use draco_syscalls::{ArgSet, SyscallId, SyscallRequest};
///
/// let mut os = DracoOs::new();
/// let pid = os.spawn(&docker_default())?;
/// let read = SyscallRequest::new(0, SyscallId::new(0), ArgSet::from_slice(&[3, 0, 8]));
/// assert!(os.syscall(pid, &read)?.action.permits());
/// # Ok::<(), draco_core::OsError>(())
/// ```
#[derive(Debug, Default)]
pub struct DracoOs {
    processes: BTreeMap<ProcessId, DracoProcess>,
    next_pid: u32,
    reaped: u64,
}

impl DracoOs {
    /// Creates an empty process table.
    pub fn new() -> Self {
        DracoOs {
            processes: BTreeMap::new(),
            next_pid: 1,
            reaped: 0,
        }
    }

    fn allocate_pid(&mut self) -> ProcessId {
        loop {
            let pid = ProcessId(self.next_pid);
            self.next_pid = self.next_pid.wrapping_add(1).max(1);
            if !self.processes.contains_key(&pid) {
                return pid;
            }
        }
    }

    /// Spawns a process with the given profile installed; returns its PID.
    ///
    /// # Errors
    ///
    /// Returns [`OsError::Draco`] if the profile's filter fails to
    /// compile.
    pub fn spawn(&mut self, profile: &ProfileSpec) -> Result<ProcessId, OsError> {
        let pid = self.allocate_pid();
        let proc = DracoProcess::spawn(pid, profile)?;
        self.processes.insert(pid, proc);
        Ok(pid)
    }

    /// Forks `parent`: the child inherits the policy with cold tables.
    ///
    /// # Errors
    ///
    /// Returns [`OsError::NoSuchProcess`] for an unknown parent.
    pub fn fork(&mut self, parent: ProcessId) -> Result<ProcessId, OsError> {
        let child_pid = self.allocate_pid();
        let parent_proc = self
            .processes
            .get(&parent)
            .ok_or(OsError::NoSuchProcess(parent))?;
        let child = parent_proc.fork(child_pid);
        self.processes.insert(child_pid, child);
        Ok(child_pid)
    }

    /// `exec`: replaces the process image, installing a (possibly
    /// different) profile with fresh tables. The PID is preserved.
    ///
    /// # Errors
    ///
    /// Returns [`OsError::NoSuchProcess`] for an unknown PID.
    pub fn exec(&mut self, pid: ProcessId, profile: &ProfileSpec) -> Result<(), OsError> {
        if !self.processes.contains_key(&pid) {
            return Err(OsError::NoSuchProcess(pid));
        }
        let fresh = DracoProcess::spawn(pid, profile)?;
        self.processes.insert(pid, fresh);
        Ok(())
    }

    /// Dispatches one system call to a process.
    ///
    /// # Errors
    ///
    /// Returns [`OsError::NoSuchProcess`] for an unknown PID.
    pub fn syscall(
        &mut self,
        pid: ProcessId,
        req: &SyscallRequest,
    ) -> Result<CheckResult, OsError> {
        let proc = self
            .processes
            .get_mut(&pid)
            .ok_or(OsError::NoSuchProcess(pid))?;
        Ok(proc.syscall(req))
    }

    /// Access to a process.
    pub fn process(&self, pid: ProcessId) -> Option<&DracoProcess> {
        self.processes.get(&pid)
    }

    /// PIDs currently in the table, ascending.
    pub fn pids(&self) -> Vec<ProcessId> {
        self.processes.keys().copied().collect()
    }

    /// Number of live (not-killed) processes.
    pub fn live_count(&self) -> usize {
        self.processes.values().filter(|p| p.is_alive()).count()
    }

    /// Removes dead processes; returns how many were reaped.
    pub fn reap(&mut self) -> usize {
        let before = self.processes.len();
        self.processes.retain(|_, p| p.is_alive());
        let reaped = before - self.processes.len();
        self.reaped += reaped as u64;
        reaped
    }

    /// Total processes reaped over the OS lifetime.
    pub const fn total_reaped(&self) -> u64 {
        self.reaped
    }

    /// Fleet-wide checker statistics (sum over live processes).
    pub fn aggregate_stats(&self) -> CheckerStats {
        let mut total = CheckerStats::default();
        for p in self.processes.values() {
            let s = p.stats();
            total.spt_hits += s.spt_hits;
            total.vat_hits += s.vat_hits;
            total.filter_runs += s.filter_runs;
            total.filter_insns += s.filter_insns;
            total.denials += s.denials;
            total.vat_inserts += s.vat_inserts;
        }
        total
    }

    /// Total VAT bytes across live processes (each process pays for its
    /// own tables — the §XI-C footprint is per process).
    pub fn total_vat_bytes(&self) -> usize {
        self.processes
            .values()
            .map(|p| p.checker().vat().footprint_bytes())
            .sum()
    }
}

impl fmt::Display for DracoOs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DracoOs: {} processes ({} live), {}",
            self.processes.len(),
            self.live_count(),
            self.aggregate_stats()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use draco_bpf::SeccompAction;
    use draco_profiles::{docker_default, firecracker, gvisor_default};
    use draco_syscalls::{ArgSet, SyscallId};

    fn req(nr: u16, args: &[u64]) -> SyscallRequest {
        SyscallRequest::new(0x1000, SyscallId::new(nr), ArgSet::from_slice(args))
    }

    #[test]
    fn spawn_dispatch_and_stats() {
        let mut os = DracoOs::new();
        let a = os.spawn(&docker_default()).unwrap();
        let b = os.spawn(&firecracker()).unwrap();
        assert_ne!(a, b);
        assert_eq!(os.pids(), vec![a, b]);
        // Same syscall, different verdicts per process profile.
        let ptrace = req(101, &[0, 0]);
        assert!(!os.syscall(a, &ptrace).unwrap().action.permits());
        assert!(!os.syscall(b, &ptrace).unwrap().action.permits());
        let read = req(0, &[3, 0, 64]);
        assert!(os.syscall(a, &read).unwrap().action.permits());
        assert_eq!(os.aggregate_stats().total(), 3);
    }

    #[test]
    fn per_process_isolation_of_tables() {
        let mut os = DracoOs::new();
        let a = os.spawn(&docker_default()).unwrap();
        let b = os.spawn(&docker_default()).unwrap();
        let read = req(0, &[3, 0, 64]);
        os.syscall(a, &read).unwrap();
        os.syscall(a, &read).unwrap();
        // Process a has warmed its SPT; b is still cold.
        assert!(os.process(a).unwrap().stats().spt_hits > 0);
        assert_eq!(os.process(b).unwrap().stats().total(), 0);
        let r = os.syscall(b, &read).unwrap();
        assert!(!r.path.is_cache_hit(), "b's tables are its own");
    }

    #[test]
    fn kill_and_reap() {
        let mut os = DracoOs::new();
        let a = os.spawn(&gvisor_default()).unwrap(); // kill-process default
        let b = os.spawn(&gvisor_default()).unwrap();
        os.syscall(a, &req(101, &[0, 0])).unwrap(); // ptrace → killed
        assert_eq!(os.live_count(), 1);
        assert_eq!(os.reap(), 1);
        assert!(os.process(a).is_none());
        assert!(os.process(b).is_some());
        assert_eq!(os.total_reaped(), 1);
    }

    #[test]
    fn fork_preserves_profile_exec_replaces_it() {
        let mut os = DracoOs::new();
        let parent = os.spawn(&docker_default()).unwrap();
        let child = os.fork(parent).unwrap();
        assert_eq!(
            os.process(child).unwrap().profile().name(),
            "docker-default"
        );
        os.exec(child, &firecracker()).unwrap();
        assert_eq!(os.process(child).unwrap().profile().name(), "firecracker");
        // Parent unaffected.
        assert_eq!(
            os.process(parent).unwrap().profile().name(),
            "docker-default"
        );
    }

    #[test]
    fn errors_are_typed() {
        let mut os = DracoOs::new();
        let missing = ProcessId(99);
        assert!(matches!(
            os.syscall(missing, &req(0, &[])),
            Err(OsError::NoSuchProcess(_))
        ));
        assert!(matches!(
            os.fork(missing),
            Err(OsError::NoSuchProcess(_))
        ));
        assert!(matches!(
            os.exec(missing, &firecracker()),
            Err(OsError::NoSuchProcess(_))
        ));
        let msg = OsError::NoSuchProcess(missing).to_string();
        assert!(msg.contains("pid:99"));
    }

    #[test]
    fn vat_accounting_is_per_process() {
        let mut os = DracoOs::new();
        let a = os.spawn(&docker_default()).unwrap();
        let before = os.total_vat_bytes();
        // personality is argument-checked in docker-default → VAT table.
        os.syscall(a, &req(135, &[0xffff_ffff])).unwrap();
        assert!(os.total_vat_bytes() > before);
    }

    #[test]
    fn display_is_informative() {
        let mut os = DracoOs::new();
        os.spawn(&firecracker()).unwrap();
        let s = os.to_string();
        assert!(s.contains("1 processes"));
        assert_eq!(DracoOs::default().live_count(), 0);
    }

    #[test]
    fn denied_spawn_action_kills_only_with_kill_action() {
        // An errno-default profile never kills the process.
        let mut os = DracoOs::new();
        let mut profile = ProfileSpec::new("errno", SeccompAction::Errno(1));
        profile.allow(
            SyscallId::new(39),
            draco_profiles::SyscallRule::any(draco_profiles::RuleSource::Runtime),
        );
        let pid = os.spawn(&profile).unwrap();
        for _ in 0..5 {
            let r = os.syscall(pid, &req(101, &[0, 0])).unwrap();
            assert_eq!(r.action, SeccompAction::Errno(1));
        }
        assert_eq!(os.live_count(), 1);
    }
}
