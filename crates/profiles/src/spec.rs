//! The declarative profile specification.

use std::collections::BTreeMap;
use std::fmt;

use draco_bpf::SeccompAction;
use draco_syscalls::{ArgBitmask, ArgSet, SyscallId, SyscallRequest, SyscallTable};

/// How a rule entered the profile — used by the Fig. 15a breakdown of
/// application-specific vs container-runtime-required system calls.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RuleSource {
    /// Required by the container runtime itself (≈20% in the paper).
    Runtime,
    /// Observed in / required by the application.
    Application,
}

/// The argument policy of one allowed system call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArgPolicy {
    /// Any argument values are acceptable (ID-only checking).
    AnyArgs,
    /// Only the listed masked argument sets are acceptable.
    Whitelist {
        /// Which argument bytes are compared.
        mask: ArgBitmask,
        /// The allowed masked argument sets (each already masked).
        sets: Vec<ArgSet>,
    },
}

impl ArgPolicy {
    /// Builds a whitelist policy, masking the provided sets.
    pub fn whitelist(mask: ArgBitmask, sets: impl IntoIterator<Item = ArgSet>) -> Self {
        let mut masked: Vec<ArgSet> = sets.into_iter().map(|s| mask.masked(&s)).collect();
        masked.sort_unstable();
        masked.dedup();
        ArgPolicy::Whitelist { mask, sets: masked }
    }

    /// True if the policy accepts these (raw) arguments.
    pub fn accepts(&self, args: &ArgSet) -> bool {
        match self {
            ArgPolicy::AnyArgs => true,
            ArgPolicy::Whitelist { mask, sets } => {
                let masked = mask.masked(args);
                sets.binary_search(&masked).is_ok()
            }
        }
    }

    /// Number of argument *positions* this policy compares (0 for
    /// [`ArgPolicy::AnyArgs`]).
    pub fn checked_arg_positions(&self) -> usize {
        match self {
            ArgPolicy::AnyArgs => 0,
            ArgPolicy::Whitelist { mask, .. } => mask.arg_count(),
        }
    }

    /// Number of distinct argument values allowed across all positions.
    pub fn distinct_values(&self) -> usize {
        match self {
            ArgPolicy::AnyArgs => 0,
            ArgPolicy::Whitelist { mask, sets } => {
                let mut values = std::collections::BTreeSet::new();
                for set in sets {
                    for arg in 0..draco_syscalls::MAX_ARGS {
                        if (mask.raw() >> (arg * 8)) & 0xff != 0 {
                            values.insert((arg, set.get(arg)));
                        }
                    }
                }
                values.len()
            }
        }
    }
}

/// One allowed system call and its argument policy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SyscallRule {
    /// The argument policy.
    pub args: ArgPolicy,
    /// Who put the rule in the profile.
    pub source: RuleSource,
}

impl SyscallRule {
    /// A rule allowing the call with any arguments.
    pub fn any(source: RuleSource) -> Self {
        SyscallRule {
            args: ArgPolicy::AnyArgs,
            source,
        }
    }
}

/// A complete seccomp policy: allowed system calls, argument whitelists,
/// and the action for everything else.
///
/// Profiles are *stateless*: the verdict for a call depends only on its ID
/// and argument values — the property that makes Draco's caching sound
/// (paper §V: "This approach is correct because Seccomp profiles are
/// stateless").
#[derive(Clone, PartialEq, Eq)]
pub struct ProfileSpec {
    name: String,
    rules: BTreeMap<SyscallId, SyscallRule>,
    /// First-allow order. Filters execute rules in this order, like
    /// libseccomp and the strace-driven toolkit (first-observed syscalls
    /// sit at the front of the chain); re-allowing keeps the original
    /// position.
    order: Vec<SyscallId>,
    default_action: SeccompAction,
    /// How many times checks are conceptually repeated; 2 models the
    /// paper's `syscall-complete-2x` near-future profile (§IV-A).
    repeat: u8,
}

impl ProfileSpec {
    /// Creates an empty profile that denies everything.
    pub fn new(name: impl Into<String>, default_action: SeccompAction) -> Self {
        ProfileSpec {
            name: name.into(),
            rules: BTreeMap::new(),
            order: Vec::new(),
            default_action,
            repeat: 1,
        }
    }

    /// The profile name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The action for calls not matched by any rule.
    pub const fn default_action(&self) -> SeccompAction {
        self.default_action
    }

    /// Check-repetition factor (see [`ProfileSpec::with_repeat`]).
    pub const fn repeat(&self) -> u8 {
        self.repeat
    }

    /// Returns a copy whose compiled filter performs the checks `repeat`
    /// times in a row (the paper's `-2x` profiles).
    ///
    /// # Panics
    ///
    /// Panics if `repeat == 0`.
    #[must_use]
    pub fn with_repeat(mut self, repeat: u8) -> Self {
        assert!(repeat >= 1, "repeat factor must be at least 1");
        self.repeat = repeat;
        if repeat > 1 && !self.name.ends_with("-2x") && repeat == 2 {
            self.name = format!("{}-2x", self.name);
        }
        self
    }

    /// Sets the repeat factor without touching the name (deserialization
    /// path: the serialized name already carries any `-2x` suffix).
    pub(crate) fn set_repeat_raw(&mut self, repeat: u8) {
        assert!(repeat >= 1, "repeat factor must be at least 1");
        self.repeat = repeat;
    }

    /// Adds (or replaces) a rule. A new syscall takes the next position
    /// in the filter chain; replacing keeps the original position.
    pub fn allow(&mut self, id: SyscallId, rule: SyscallRule) -> &mut Self {
        if self.rules.insert(id, rule).is_none() {
            self.order.push(id);
        }
        self
    }

    /// Adds an any-args rule by syscall name, resolving against a table.
    ///
    /// # Panics
    ///
    /// Panics if the name is unknown — profile construction is
    /// programmer-driven and a typo should fail loudly.
    pub fn allow_name(
        &mut self,
        table: &SyscallTable,
        name: &str,
        source: RuleSource,
    ) -> &mut Self {
        let desc = table
            .by_name(name)
            .unwrap_or_else(|| panic!("unknown syscall `{name}` in profile"));
        self.allow(desc.id(), SyscallRule::any(source))
    }

    /// Removes a rule; returns true if one was present.
    pub fn deny(&mut self, id: SyscallId) -> bool {
        let removed = self.rules.remove(&id).is_some();
        if removed {
            self.order.retain(|&o| o != id);
        }
        removed
    }

    /// The rule for a syscall, if allowed.
    pub fn rule(&self, id: SyscallId) -> Option<&SyscallRule> {
        self.rules.get(&id)
    }

    /// Returns a copy whose filter chain lists the given syscalls first,
    /// in the given order (libseccomp's rule-priority mechanism: put the
    /// hottest syscalls at the front of the chain). Syscalls not listed
    /// keep their relative order after the prioritized ones; listed
    /// syscalls without a rule are ignored.
    #[must_use]
    pub fn with_priority_order(&self, hottest_first: &[SyscallId]) -> ProfileSpec {
        let mut reordered = self.clone();
        let mut seen = std::collections::HashSet::new();
        let prioritized: Vec<SyscallId> = hottest_first
            .iter()
            .copied()
            .filter(|id| self.rules.contains_key(id) && seen.insert(*id))
            .collect();
        let mut order = prioritized.clone();
        order.extend(self.order.iter().copied().filter(|id| !prioritized.contains(id)));
        debug_assert_eq!(order.len(), self.order.len());
        reordered.order = order;
        reordered
    }

    /// Iterates over `(id, rule)` pairs in filter-chain (first-allow)
    /// order.
    pub fn rules(&self) -> impl Iterator<Item = (SyscallId, &SyscallRule)> {
        self.order.iter().map(move |id| {
            (*id, self.rules.get(id).expect("order tracks rules"))
        })
    }

    /// Number of allowed system calls.
    pub fn allowed_syscall_count(&self) -> usize {
        self.rules.len()
    }

    /// True if any rule whitelists argument values.
    pub fn checks_arguments(&self) -> bool {
        self.rules
            .values()
            .any(|r| !matches!(r.args, ArgPolicy::AnyArgs))
    }

    /// Intersects two profiles: the result allows exactly the calls both
    /// allow — the semantics of attaching a second seccomp filter to a
    /// running process (the kernel combines verdicts most-restrictively).
    ///
    /// Argument whitelists intersect by joining value sets over the union
    /// of their masks: a joined set exists for each pair of sets that
    /// agree on the overlapping bytes.
    ///
    /// The result is named `"{self}+{other}"`, leaving out each
    /// `+`-separated component of `other`'s name that `self`'s already
    /// has, so re-attaching the same profile keeps the name unchanged.
    #[must_use]
    pub fn intersect(&self, other: &ProfileSpec) -> ProfileSpec {
        let default = self.default_action.most_restrictive(other.default_action);
        let mut name = self.name.clone();
        for part in other.name.split('+') {
            if !self.name.split('+').any(|have| have == part) {
                name.push('+');
                name.push_str(part);
            }
        }
        let mut out = ProfileSpec::new(name, default);
        for (id, rule_a) in self.rules() {
            let Some(rule_b) = other.rule(id) else {
                continue;
            };
            let args = match (&rule_a.args, &rule_b.args) {
                (ArgPolicy::AnyArgs, ArgPolicy::AnyArgs) => ArgPolicy::AnyArgs,
                (ArgPolicy::AnyArgs, w @ ArgPolicy::Whitelist { .. })
                | (w @ ArgPolicy::Whitelist { .. }, ArgPolicy::AnyArgs) => w.clone(),
                (
                    ArgPolicy::Whitelist { mask: m1, sets: s1 },
                    ArgPolicy::Whitelist { mask: m2, sets: s2 },
                ) => {
                    let union = m1.union(*m2);
                    let overlap = ArgBitmask::from_raw(m1.raw() & m2.raw());
                    let mut joined = Vec::new();
                    for a in s1 {
                        for b in s2 {
                            if overlap.masked(a) == overlap.masked(b) {
                                let mut merged = ArgSet::empty();
                                for pos in 0..draco_syscalls::MAX_ARGS {
                                    merged = merged.with(pos, a.get(pos) | b.get(pos));
                                }
                                joined.push(union.masked(&merged));
                            }
                        }
                    }
                    if joined.is_empty() {
                        // No common argument set: the syscall is
                        // effectively denied — omit the rule.
                        continue;
                    }
                    ArgPolicy::whitelist(union, joined)
                }
            };
            let source = match (rule_a.source, rule_b.source) {
                (RuleSource::Runtime, RuleSource::Runtime) => RuleSource::Runtime,
                _ => RuleSource::Application,
            };
            out.allow(id, SyscallRule { args, source });
        }
        out
    }

    /// Evaluates the profile directly (the test oracle; compiled filters
    /// and Draco checkers must agree with this).
    pub fn evaluate(&self, req: &SyscallRequest) -> SeccompAction {
        match self.rules.get(&req.id) {
            Some(rule) if rule.args.accepts(&req.args) => SeccompAction::Allow,
            _ => self.default_action,
        }
    }
}

impl fmt::Debug for ProfileSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProfileSpec")
            .field("name", &self.name)
            .field("syscalls", &self.rules.len())
            .field("default", &self.default_action)
            .field("repeat", &self.repeat)
            .finish()
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_profile() -> impl Strategy<Value = ProfileSpec> {
        proptest::collection::vec(
            (
                0u16..24,
                proptest::option::of(proptest::collection::vec(0u64..6, 1..4)),
            ),
            0..10,
        )
        .prop_map(|rules| {
            let mut p = ProfileSpec::new("prop", SeccompAction::KillProcess);
            for (nr, values) in rules {
                let rule = match values {
                    None => SyscallRule::any(RuleSource::Application),
                    Some(vals) => SyscallRule {
                        args: ArgPolicy::whitelist(
                            ArgBitmask::from_widths([4, 0, 0, 0, 0, 0]),
                            vals.into_iter().map(|v| ArgSet::from_slice(&[v])),
                        ),
                        source: RuleSource::Application,
                    },
                };
                p.allow(SyscallId::new(nr), rule);
            }
            p
        })
    }

    proptest! {
        /// `intersect` is exactly logical conjunction of the two
        /// policies, for arbitrary profiles and probes.
        #[test]
        fn intersect_is_pointwise_and(
            a in arb_profile(),
            b in arb_profile(),
            probes in proptest::collection::vec((0u16..26, 0u64..8), 1..32),
        ) {
            let i = a.intersect(&b);
            for (nr, v) in probes {
                let req = SyscallRequest::new(
                    0,
                    SyscallId::new(nr),
                    ArgSet::from_slice(&[v]),
                );
                let want = a.evaluate(&req).permits() && b.evaluate(&req).permits();
                prop_assert_eq!(i.evaluate(&req).permits(), want, "nr {} v {}", nr, v);
            }
        }

        /// Reordering the filter chain never changes semantics.
        #[test]
        fn priority_order_preserves_semantics(
            p in arb_profile(),
            order in proptest::collection::vec(0u16..30, 0..12),
            probes in proptest::collection::vec((0u16..26, 0u64..8), 1..16),
        ) {
            let ids: Vec<SyscallId> = order.into_iter().map(SyscallId::new).collect();
            let r = p.with_priority_order(&ids);
            prop_assert_eq!(r.allowed_syscall_count(), p.allowed_syscall_count());
            for (nr, v) in probes {
                let req = SyscallRequest::new(
                    0,
                    SyscallId::new(nr),
                    ArgSet::from_slice(&[v]),
                );
                prop_assert_eq!(r.evaluate(&req), p.evaluate(&req));
            }
        }

        /// Intersection is commutative in semantics (names differ).
        #[test]
        fn intersect_commutes(
            a in arb_profile(),
            b in arb_profile(),
            probes in proptest::collection::vec((0u16..26, 0u64..8), 1..16),
        ) {
            let ab = a.intersect(&b);
            let ba = b.intersect(&a);
            for (nr, v) in probes {
                let req = SyscallRequest::new(
                    0,
                    SyscallId::new(nr),
                    ArgSet::from_slice(&[v]),
                );
                prop_assert_eq!(ab.evaluate(&req).permits(), ba.evaluate(&req).permits());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use draco_syscalls::ArgBitmask;

    fn req(nr: u16, args: [u64; 6]) -> SyscallRequest {
        SyscallRequest::new(0, SyscallId::new(nr), ArgSet::new(args))
    }

    #[test]
    fn empty_profile_denies_everything() {
        let p = ProfileSpec::new("empty", SeccompAction::KillProcess);
        assert_eq!(p.evaluate(&req(0, [0; 6])), SeccompAction::KillProcess);
        assert_eq!(p.allowed_syscall_count(), 0);
        assert!(!p.checks_arguments());
    }

    #[test]
    fn any_args_rule_allows_all_values() {
        let mut p = ProfileSpec::new("t", SeccompAction::KillProcess);
        p.allow(SyscallId::new(1), SyscallRule::any(RuleSource::Application));
        assert_eq!(p.evaluate(&req(1, [99; 6])), SeccompAction::Allow);
        assert_eq!(p.evaluate(&req(2, [0; 6])), SeccompAction::KillProcess);
    }

    #[test]
    fn whitelist_rule_checks_masked_values() {
        let mask = ArgBitmask::from_widths([4, 0, 0, 0, 0, 0]);
        let mut p = ProfileSpec::new("t", SeccompAction::Errno(1));
        p.allow(
            SyscallId::new(135),
            SyscallRule {
                args: ArgPolicy::whitelist(
                    mask,
                    [ArgSet::from_slice(&[0xffff_ffff]), ArgSet::from_slice(&[0x20008])],
                ),
                source: RuleSource::Application,
            },
        );
        assert_eq!(
            p.evaluate(&req(135, [0xffff_ffff, 0, 0, 0, 0, 0])),
            SeccompAction::Allow
        );
        assert_eq!(
            p.evaluate(&req(135, [0x20008, 7, 7, 7, 7, 7])),
            SeccompAction::Allow,
            "unmasked args ignored"
        );
        assert_eq!(
            p.evaluate(&req(135, [1, 0, 0, 0, 0, 0])),
            SeccompAction::Errno(1)
        );
        assert!(p.checks_arguments());
    }

    #[test]
    fn whitelist_dedups_and_masks_sets() {
        let mask = ArgBitmask::from_widths([1, 0, 0, 0, 0, 0]);
        let policy = ArgPolicy::whitelist(
            mask,
            [
                ArgSet::from_slice(&[0x1ff]), // masks to 0xff
                ArgSet::from_slice(&[0xff]),  // duplicate after masking
            ],
        );
        match &policy {
            ArgPolicy::Whitelist { sets, .. } => assert_eq!(sets.len(), 1),
            ArgPolicy::AnyArgs => panic!("expected whitelist"),
        }
    }

    #[test]
    fn distinct_values_counts_per_position() {
        let mask = ArgBitmask::from_widths([4, 4, 0, 0, 0, 0]);
        let policy = ArgPolicy::whitelist(
            mask,
            [
                ArgSet::from_slice(&[1, 10]),
                ArgSet::from_slice(&[1, 20]),
                ArgSet::from_slice(&[2, 10]),
            ],
        );
        // Position 0: {1, 2}; position 1: {10, 20} → 4 distinct values.
        assert_eq!(policy.distinct_values(), 4);
        assert_eq!(policy.checked_arg_positions(), 2);
        assert_eq!(ArgPolicy::AnyArgs.distinct_values(), 0);
    }

    #[test]
    fn allow_name_resolves_table() {
        let table = SyscallTable::shared();
        let mut p = ProfileSpec::new("t", SeccompAction::KillProcess);
        p.allow_name(table, "getpid", RuleSource::Runtime);
        assert_eq!(p.evaluate(&req(39, [0; 6])), SeccompAction::Allow);
    }

    #[test]
    #[should_panic(expected = "unknown syscall")]
    fn allow_name_panics_on_typo() {
        let mut p = ProfileSpec::new("t", SeccompAction::KillProcess);
        p.allow_name(SyscallTable::shared(), "getpidd", RuleSource::Runtime);
    }

    #[test]
    fn deny_removes_rule() {
        let mut p = ProfileSpec::new("t", SeccompAction::KillProcess);
        p.allow(SyscallId::new(5), SyscallRule::any(RuleSource::Runtime));
        assert!(p.deny(SyscallId::new(5)));
        assert!(!p.deny(SyscallId::new(5)));
        assert_eq!(p.evaluate(&req(5, [0; 6])), SeccompAction::KillProcess);
    }

    #[test]
    fn with_repeat_renames_2x() {
        let p = ProfileSpec::new("app-complete", SeccompAction::KillProcess).with_repeat(2);
        assert_eq!(p.name(), "app-complete-2x");
        assert_eq!(p.repeat(), 2);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_repeat_rejected() {
        let _ = ProfileSpec::new("t", SeccompAction::KillProcess).with_repeat(0);
    }

    #[test]
    fn intersect_is_conjunction() {
        let mask0 = ArgBitmask::from_widths([4, 0, 0, 0, 0, 0]);
        let mut a = ProfileSpec::new("a", SeccompAction::Errno(1));
        a.allow(SyscallId::new(1), SyscallRule::any(RuleSource::Runtime));
        a.allow(SyscallId::new(2), SyscallRule::any(RuleSource::Application));
        a.allow(
            SyscallId::new(3),
            SyscallRule {
                args: ArgPolicy::whitelist(
                    mask0,
                    [ArgSet::from_slice(&[1]), ArgSet::from_slice(&[2])],
                ),
                source: RuleSource::Application,
            },
        );
        let mut b = ProfileSpec::new("b", SeccompAction::KillProcess);
        b.allow(SyscallId::new(1), SyscallRule::any(RuleSource::Runtime));
        b.allow(
            SyscallId::new(3),
            SyscallRule {
                args: ArgPolicy::whitelist(
                    mask0,
                    [ArgSet::from_slice(&[2]), ArgSet::from_slice(&[9])],
                ),
                source: RuleSource::Application,
            },
        );
        let i = a.intersect(&b);
        assert_eq!(i.name(), "a+b");
        assert_eq!(i.default_action(), SeccompAction::KillProcess);
        // Conjunction over a grid of probes.
        for nr in [1u16, 2, 3, 4] {
            for v in [1u64, 2, 9, 77] {
                let r = req(nr, [v, 0, 0, 0, 0, 0]);
                let both = a.evaluate(&r).permits() && b.evaluate(&r).permits();
                assert_eq!(i.evaluate(&r).permits(), both, "nr {nr} v {v}");
            }
        }
    }

    #[test]
    fn intersect_names_each_component_once() {
        let p = |name: &str| ProfileSpec::new(name, SeccompAction::KillProcess);
        assert_eq!(p("redis").intersect(&p("redis")).name(), "redis");
        assert_eq!(p("a+b").intersect(&p("b+c")).name(), "a+b+c");
        assert_eq!(p("a").intersect(&p("b+a")).name(), "a+b");
    }

    #[test]
    fn intersect_joins_different_masks() {
        // a constrains arg0, b constrains arg1: the intersection
        // constrains both.
        let ma = ArgBitmask::from_widths([4, 0, 0, 0, 0, 0]);
        let mb = ArgBitmask::from_widths([0, 4, 0, 0, 0, 0]);
        let mut a = ProfileSpec::new("a", SeccompAction::KillProcess);
        a.allow(
            SyscallId::new(5),
            SyscallRule {
                args: ArgPolicy::whitelist(ma, [ArgSet::from_slice(&[7])]),
                source: RuleSource::Application,
            },
        );
        let mut b = ProfileSpec::new("b", SeccompAction::KillProcess);
        b.allow(
            SyscallId::new(5),
            SyscallRule {
                args: ArgPolicy::whitelist(mb, [ArgSet::from_slice(&[0, 8])]),
                source: RuleSource::Application,
            },
        );
        let i = a.intersect(&b);
        assert!(i.evaluate(&req(5, [7, 8, 0, 0, 0, 0])).permits());
        assert!(!i.evaluate(&req(5, [7, 9, 0, 0, 0, 0])).permits());
        assert!(!i.evaluate(&req(5, [6, 8, 0, 0, 0, 0])).permits());
    }

    #[test]
    fn priority_order_moves_hot_rules_first() {
        let mut p = ProfileSpec::new("t", SeccompAction::KillProcess);
        for nr in [10u16, 20, 30, 40] {
            p.allow(SyscallId::new(nr), SyscallRule::any(RuleSource::Application));
        }
        let hot = [SyscallId::new(30), SyscallId::new(10), SyscallId::new(99)];
        let r = p.with_priority_order(&hot);
        let order: Vec<u16> = r.rules().map(|(id, _)| id.as_u16()).collect();
        assert_eq!(order, vec![30, 10, 20, 40], "99 ignored, rest stable");
        // Semantics unchanged.
        for nr in [10u16, 20, 30, 40, 99] {
            let req = req(nr, [0; 6]);
            assert_eq!(p.evaluate(&req), r.evaluate(&req));
        }
    }

    #[test]
    fn debug_mentions_counts() {
        let p = ProfileSpec::new("t", SeccompAction::KillProcess);
        assert!(format!("{p:?}").contains("syscalls"));
    }
}
