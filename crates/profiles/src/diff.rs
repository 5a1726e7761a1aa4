//! Semantic diffing of whole profiles.
//!
//! Lifts [`draco_bpf::semdiff`] from single filters to profile stacks:
//! both profiles are compiled exactly as they would be installed
//! ([`compile_stacked`], binary-tree layout, chunking and membership
//! filter included), the stacks become the two [`SemSide`]s, and the
//! probe set is derived from every syscall either profile mentions plus
//! each compiled filter's own compare boundaries. On top of the
//! per-syscall relation lattice this layer adds *dead-rule detection*:
//! a syscall a profile whitelists whose combined stack verdict is
//! nevertheless a constant deny — a rule shadowed by chunking, an empty
//! argument whitelist (e.g. produced by an intersection of disjoint
//! whitelists), or an importer artifact.
//!
//! [`diff_profiles`] is the engine behind `dracoctl diff`.
//! [`refinement_gate`] is the `RequireRefinement` hot-reload gate in
//! `draco-core`: the same compiled stacks and probe set, but only the
//! admit/refuse answer, and no dead-rule pass.

use draco_bpf::semdiff::{
    diff_sides, first_unsafe, interesting_nrs, DiffConfig, DiffReport, Relation, SemSide,
    SyscallDiff,
};
use draco_bpf::{BpfError, Verdict};
use draco_syscalls::SyscallId;

use crate::analysis::analyze_profile;
use crate::compile::{compile_stacked, FilterLayout};
use crate::spec::ProfileSpec;

/// The result of semantically diffing two profiles.
#[derive(Clone, Debug)]
pub struct ProfileDiff {
    /// Name of the old (currently installed) profile.
    pub old_name: String,
    /// Name of the new (candidate) profile.
    pub new_name: String,
    /// The per-syscall semantic comparison of the two compiled stacks.
    pub report: DiffReport,
    /// Syscalls the old profile whitelists whose combined stack verdict
    /// is a constant deny (shadowed or dead rules).
    pub dead_old: Vec<SyscallId>,
    /// Same, for the new profile — a tightening that was probably not
    /// intended to be spelled as a dead whitelist entry.
    pub dead_new: Vec<SyscallId>,
}

impl ProfileDiff {
    /// True if swapping old for new cannot permit anything new.
    #[must_use]
    pub fn is_safe_swap(&self) -> bool {
        self.report.relation.is_safe_swap()
    }
}

/// Semantically compares two profiles as their installed filter stacks,
/// with the default search budget.
///
/// # Errors
///
/// Propagates filter-compile failures (compiler bugs; every expressible
/// profile is compilable).
pub fn diff_profiles(old: &ProfileSpec, new: &ProfileSpec) -> Result<ProfileDiff, BpfError> {
    diff_profiles_with(old, new, &DiffConfig::default())
}

/// [`diff_profiles`] with an explicit [`DiffConfig`].
///
/// # Errors
///
/// Propagates filter-compile failures.
pub fn diff_profiles_with(
    old: &ProfileSpec,
    new: &ProfileSpec,
    cfg: &DiffConfig,
) -> Result<ProfileDiff, BpfError> {
    let report = with_sides(old, new, |o, n, nrs| diff_sides(o, n, nrs, cfg))?;
    Ok(ProfileDiff {
        old_name: old.name().to_owned(),
        new_name: new.name().to_owned(),
        report,
        dead_old: dead_rules(old)?,
        dead_new: dead_rules(new)?,
    })
}

/// The reload gate: admits `new` in place of `old` exactly when
/// `diff_profiles(old, new)` calls it a safe swap, without building the
/// report (see [`first_unsafe`]).
///
/// Returns `Ok(relation)` for an admitted candidate, with the relation
/// the full diff would report, or `Err(diff)` naming the first syscall
/// that is not a safe swap, with its VM-verified witness when one was
/// found.
///
/// # Errors
///
/// Propagates filter-compile failures.
pub fn refinement_gate(
    old: &ProfileSpec,
    new: &ProfileSpec,
) -> Result<Result<Relation, SyscallDiff>, BpfError> {
    with_sides(old, new, |o, n, nrs| {
        first_unsafe(o, n, nrs, &DiffConfig::default())
    })
}

/// Compiles both profiles as installed (binary-tree layout) and hands
/// the two stacks, with the probe set, to `compare`.
fn with_sides<R>(
    old: &ProfileSpec,
    new: &ProfileSpec,
    compare: impl FnOnce(&SemSide<'_>, &SemSide<'_>, &[u32]) -> R,
) -> Result<R, BpfError> {
    let old_stack = compile_stacked(old, FilterLayout::BinaryTree)?;
    let new_stack = compile_stacked(new, FilterLayout::BinaryTree)?;
    let old_side = SemSide::stack(old_stack.programs(), old.default_action());
    let new_side = SemSide::stack(new_stack.programs(), new.default_action());
    // Probe every syscall either profile mentions plus one number
    // guaranteed outside both whitelists; interesting_nrs adds every
    // compiled compare boundary on the nr word on top.
    let mentioned = old
        .rules()
        .chain(new.rules())
        .map(|(id, _)| u32::from(id.as_u16()))
        .chain([u32::from(u16::MAX)]);
    let nrs = interesting_nrs(&old_side, &new_side, mentioned);
    Ok(compare(&old_side, &new_side, &nrs))
}

/// Whitelisted syscalls whose combined stack verdict is a constant
/// deny: the rule exists but can never permit anything.
fn dead_rules(profile: &ProfileSpec) -> Result<Vec<SyscallId>, BpfError> {
    let analysis = analyze_profile(profile)?;
    Ok(analysis
        .syscalls()
        .iter()
        .filter(|r| matches!(r.verdict, Verdict::AlwaysDeny(_)))
        .map(|r| r.sid)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{docker_default, firecracker};
    use crate::spec::{ArgPolicy, RuleSource, SyscallRule};
    use draco_bpf::semdiff::Relation;
    use draco_bpf::{Interpreter, SeccompAction, SeccompData};
    use draco_syscalls::{ArgBitmask, SyscallId};

    fn sid(nr: u16) -> SyscallId {
        SyscallId::new(nr)
    }

    #[test]
    fn identical_profiles_are_equivalent() {
        let diff = diff_profiles(&firecracker(), &firecracker()).expect("diff");
        assert_eq!(diff.report.relation, Relation::Equivalent);
        assert!(diff.is_safe_swap());
        assert!(diff.dead_old.is_empty() && diff.dead_new.is_empty());
    }

    #[test]
    fn dropping_a_rule_refines() {
        let old = firecracker();
        let mut new = firecracker();
        let dropped = old.rules().next().expect("non-empty").0;
        assert!(new.deny(dropped));
        let diff = diff_profiles(&old, &new).expect("diff");
        assert_eq!(diff.report.relation, Relation::Refines, "{:?}", diff.report);
        assert!(diff.is_safe_swap());
        // The witness names the dropped syscall and diverges for real.
        let w = diff.report.witnesses().next().expect("witness");
        assert_eq!(w.data.nr, i32::from(dropped.as_u16()));
    }

    #[test]
    fn adding_a_rule_relaxes() {
        let old = firecracker();
        let mut new = firecracker();
        new.allow(sid(1000), SyscallRule::any(RuleSource::Application));
        let diff = diff_profiles(&old, &new).expect("diff");
        assert_eq!(diff.report.relation, Relation::Relaxes, "{:?}", diff.report);
        assert!(!diff.is_safe_swap());
    }

    #[test]
    fn tightening_an_arg_whitelist_refines() {
        // clone in docker_default carries an argument whitelist; drop
        // one of its allowed values.
        let old = docker_default();
        let mut new = docker_default();
        let clone_id = old
            .rules()
            .find(|(_, r)| matches!(r.args, ArgPolicy::Whitelist { .. }))
            .expect("docker has arg rules")
            .0;
        let mut rule = new.rule(clone_id).expect("rule").clone();
        let ArgPolicy::Whitelist { mask, ref sets } = rule.args else {
            unreachable!()
        };
        assert!(sets.len() > 1, "need at least two values to drop one");
        let kept: Vec<_> = sets[1..].to_vec();
        rule.args = ArgPolicy::whitelist(mask, kept);
        new.allow(clone_id, rule);
        let diff = diff_profiles(&old, &new).expect("diff");
        assert_eq!(diff.report.relation, Relation::Refines, "{:?}", diff.report);
        // The witness is the dropped argument vector, and it diverges
        // when replayed through the real stacks.
        let w = diff.report.witnesses().next().expect("witness");
        let old_stack = compile_stacked(&old, FilterLayout::BinaryTree).unwrap();
        let new_stack = compile_stacked(&new, FilterLayout::BinaryTree).unwrap();
        assert_ne!(
            old_stack.run(&w.data).unwrap().action,
            new_stack.run(&w.data).unwrap().action
        );
    }

    #[test]
    fn empty_arg_whitelist_is_a_dead_rule() {
        let mut p = firecracker();
        // A whitelist with no accepted value sets: structurally present,
        // semantically a constant deny.
        p.allow(
            sid(1001),
            SyscallRule {
                args: ArgPolicy::Whitelist {
                    mask: ArgBitmask::from_widths([8, 0, 0, 0, 0, 0]),
                    sets: Vec::new(),
                },
                source: RuleSource::Application,
            },
        );
        let diff = diff_profiles(&p, &p).expect("diff");
        assert_eq!(diff.dead_old, vec![sid(1001)]);
        assert_eq!(diff.report.relation, Relation::Equivalent);
    }

    #[test]
    fn errno_default_change_is_incomparable() {
        let mut old = firecracker();
        let mut new = firecracker();
        // Rebuild with different default errno values.
        old = rebuild_with_default(&old, SeccompAction::Errno(1));
        new = rebuild_with_default(&new, SeccompAction::Errno(38));
        let diff = diff_profiles(&old, &new).expect("diff");
        assert_eq!(
            diff.report.relation,
            Relation::Incomparable,
            "{:?}",
            diff.report
        );
        let w = diff.report.witnesses().next().expect("witness");
        // Replay: both sides deny, with different errno values.
        let old_stack = compile_stacked(&old, FilterLayout::BinaryTree).unwrap();
        let got = Interpreter::new(&old_stack.programs()[0])
            .run(&SeccompData { ..w.data })
            .unwrap();
        assert_eq!(got.action, SeccompAction::Errno(1));
    }

    fn rebuild_with_default(p: &ProfileSpec, action: SeccompAction) -> ProfileSpec {
        let mut out = ProfileSpec::new(p.name(), action);
        for (id, rule) in p.rules() {
            out.allow(id, rule.clone());
        }
        out
    }
}
