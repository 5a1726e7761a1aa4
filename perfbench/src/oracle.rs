//! The decision oracle: the cBPF VM run on a tenant's installed filter
//! stack.
//!
//! A version is the list of filter stacks the kernel would have
//! attached at that moment: the profile installed at register (or
//! exec) time plus every reload candidate admitted since, each run by
//! the interpreter and combined most-restrictive-wins, as seccomp
//! combines stacked filters. The checker under test caches, compiles
//! and intersects; the oracle does none of that. Verdicts are memoized
//! per (version, request), so verifying every decision costs one lookup
//! per decision and one VM run per distinct request.

use std::collections::HashMap;
use std::rc::Rc;

use draco_bpf::{SeccompAction, SeccompData};
use draco_profiles::{compile_stacked, FilterLayout, FilterStack, ProfileSpec};
use draco_syscalls::SyscallRequest;

/// Index of one oracle version.
pub type Version = usize;

/// Filter stacks per version plus the memoized verdicts.
#[derive(Debug, Default)]
pub struct Oracle {
    versions: Vec<Vec<Rc<FilterStack>>>,
    verdicts: HashMap<(Version, SyscallRequest), SeccompAction>,
}

/// Compiles one profile the way it is installed (the linear layout).
///
/// # Panics
///
/// Panics if the profile does not compile: every generated profile
/// does, so a failure is a bug in the program under test.
pub fn compile(profile: &ProfileSpec) -> Rc<FilterStack> {
    Rc::new(compile_stacked(profile, FilterLayout::Linear).expect("generated profiles compile"))
}

impl Oracle {
    /// A version enforcing exactly `stack`.
    pub fn install(&mut self, stack: Rc<FilterStack>) -> Version {
        self.versions.push(vec![stack]);
        self.versions.len() - 1
    }

    /// A version enforcing `base` with `extra` attached on top.
    pub fn attach(&mut self, base: Version, extra: Rc<FilterStack>) -> Version {
        let mut stacks = self.versions[base].clone();
        stacks.push(extra);
        self.versions.push(stacks);
        self.versions.len() - 1
    }

    /// The verdict the VM reaches for `req` under `version`, or `None`
    /// if the interpreter faults.
    pub fn verdict(&mut self, version: Version, req: &SyscallRequest) -> Option<SeccompAction> {
        if let Some(&action) = self.verdicts.get(&(version, *req)) {
            return Some(action);
        }
        let data = SeccompData::from_request(req);
        let mut action = SeccompAction::Allow;
        for stack in &self.versions[version] {
            action = action.most_restrictive(stack.run(&data).ok()?.action);
        }
        self.verdicts.insert((version, *req), action);
        Some(action)
    }

    /// Distinct (version, request) pairs run on the VM so far.
    pub fn distinct(&self) -> usize {
        self.verdicts.len()
    }
}
