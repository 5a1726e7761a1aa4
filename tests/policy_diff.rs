//! Round-trips a real Docker default-profile JSON fixture through the
//! whole policy pipeline — `import_docker_json` → analyze → compile →
//! semantic diff — and pins the `errnoRet` semantics the importer
//! documents: the document's `defaultErrnoRet` decides what every
//! denial returns, and deny-rules over a deny default are no-ops.
//! It also pins the relation-only reload gate to the full diff on
//! mutated catalog profiles.

use draco::bpf::semdiff::{DiffConfig, Relation};
use draco::bpf::{SeccompAction, SeccompData};
use draco::profiles::{
    analyze_profile, compile_dag_checked, compile_stacked, diff_profiles, import_docker_json,
    refinement_gate, ArgPolicy, FilterLayout, ProfileSpec, RuleSource, SyscallRule,
};
use draco::syscalls::{ArgBitmask, ArgSet, SyscallId, SyscallRequest, SyscallTable};

const FIXTURE: &str = include_str!("fixtures/docker-default-seed.json");

fn nr(name: &str) -> u16 {
    SyscallTable::shared()
        .by_name(name)
        .unwrap_or_else(|| panic!("fixture syscall `{name}` missing from table"))
        .id()
        .as_u16()
}

fn request(name: &str, args: [u64; 6]) -> SyscallRequest {
    SyscallRequest::new(
        0x40_0000,
        draco::syscalls::SyscallId::new(nr(name)),
        ArgSet::from_slice(&args),
    )
}

#[test]
fn docker_fixture_imports_with_foreign_arch_names_skipped() {
    let import = import_docker_json(FIXTURE, "docker-seed").expect("fixture imports");
    // The multi-arch Moby document lists arm-only names; the importer
    // reports them instead of silently dropping them.
    for foreign in ["arm_fadvise64_64", "breakpoint", "cacheflush", "set_tls"] {
        assert!(
            import.skipped.iter().any(|s| s == foreign),
            "{foreign} should be skipped, got {:?}",
            import.skipped
        );
    }
    // defaultErrnoRet: 1 → every denial is EPERM.
    assert_eq!(
        import.profile.default_action(),
        SeccompAction::Errno(1),
        "document defaultErrnoRet pins the denial errno"
    );
}

#[test]
fn fixture_errno_ret_semantics_hold_in_spec_filter_and_dag() {
    let profile = import_docker_json(FIXTURE, "docker-seed")
        .expect("fixture imports")
        .profile;
    let stack = compile_stacked(&profile, FilterLayout::BinaryTree).expect("compiles");
    let dags = compile_dag_checked(&profile).expect("DAGs prove equivalent to their filters");

    // (request, expected action) triples pinning the importer's
    // documented semantics.
    let cases = [
        // Plain whitelisted syscall.
        (request("read", [3, 0, 64, 0, 0, 0]), SeccompAction::Allow),
        // Whitelisted argument tuple (personality persona values).
        (
            request("personality", [0xffff_ffff, 0, 0, 0, 0, 0]),
            SeccompAction::Allow,
        ),
        // Off-whitelist argument → the document's defaultErrnoRet.
        (
            request("personality", [1, 0, 0, 0, 0, 0]),
            SeccompAction::Errno(1),
        ),
        // Unlisted syscall → defaultErrnoRet.
        (
            request("ptrace", [0, 0, 0, 0, 0, 0]),
            SeccompAction::Errno(1),
        ),
        // clone3 carries an SCMP_ACT_ERRNO entry with errnoRet 38; in
        // the exact-match subset a deny-rule over a deny default is a
        // no-op, so the *default* errno (1, not 38) applies.
        (
            request("clone3", [0, 0, 0, 0, 0, 0]),
            SeccompAction::Errno(1),
        ),
    ];
    for (req, want) in cases {
        let nr = req.id.as_u16();
        assert_eq!(profile.evaluate(&req), want, "spec oracle, nr {nr}");
        let args: [u64; 6] = std::array::from_fn(|i| req.args.get(i));
        let data = SeccompData::for_syscall(i32::from(nr), &args);
        let via_filter = stack.run(&data).expect("filter runs").action;
        assert_eq!(via_filter, want, "compiled filter, nr {nr}");
        let via_dag = dags.run(&data).expect("dag runs").action;
        assert_eq!(via_dag, want, "compiled DAG, nr {nr}");
    }
}

#[test]
fn fixture_round_trip_analyze_compile_semdiff() {
    let profile = import_docker_json(FIXTURE, "docker-seed")
        .expect("fixture imports")
        .profile;

    // Analyze: no error-severity lints, and the whitelist survives —
    // read is always-allow, personality argument-dependent.
    let analysis = analyze_profile(&profile).expect("analyzes");
    assert!(
        analysis
            .lints()
            .iter()
            .all(|l| l.lint.kind.severity() != draco::bpf::Severity::Error),
        "{:?}",
        analysis.lints()
    );

    // The semantic differ proves the profile equivalent to itself
    // (spec → two independent compilations → product interpretation).
    let diff = diff_profiles(&profile, &profile).expect("diffs");
    assert_eq!(diff.report.relation, Relation::Equivalent);
    assert!(diff.report.fully_proven(), "no truncated searches expected");
    assert!(
        diff.dead_old.is_empty() && diff.dead_new.is_empty(),
        "the fixture carries no dead rules"
    );

    // Dropping the personality whitelist tightens the policy: the
    // differ must classify the direction and produce a live witness.
    let mut tightened = draco::profiles::ProfileSpec::new("tight", profile.default_action());
    let personality = nr("personality");
    for (id, rule) in profile.rules() {
        if id.as_u16() != personality {
            tightened.allow(id, rule.clone());
        }
    }
    let cfg = DiffConfig {
        max_inputs_per_nr: 1 << 18,
        ..DiffConfig::default()
    };
    let diff = draco::profiles::diff_profiles_with(&profile, &tightened, &cfg).expect("diffs");
    assert_eq!(diff.report.relation, Relation::Refines);
    let divergent: Vec<_> = diff.report.divergent().collect();
    assert!(
        divergent
            .iter()
            .any(|d| d.nr == u32::from(personality) && d.witness.is_some()),
        "expected a personality witness, got {divergent:?}"
    );
}

/// `profile` with the rule for `id` replaced by `rule`.
fn with_rule(profile: &ProfileSpec, id: SyscallId, rule: SyscallRule) -> ProfileSpec {
    let mut out = profile.clone();
    out.allow(id, rule);
    out
}

/// Single-step mutations of `base`, each labelled: add a syscall, drop
/// one, narrow an argument whitelist (or put one on an any-args rule),
/// widen one, and change the default errno.
fn mutants(base: &ProfileSpec) -> Vec<(&'static str, ProfileSpec)> {
    let mut out = Vec::new();
    let unlisted = (0u16..)
        .map(SyscallId::new)
        .find(|&id| base.rule(id).is_none())
        .expect("a syscall outside the whitelist");
    out.push((
        "add",
        with_rule(base, unlisted, SyscallRule::any(RuleSource::Application)),
    ));
    let (first, _) = base.rules().next().expect("non-empty profile");
    let mut dropped = base.clone();
    dropped.deny(first);
    out.push(("drop", dropped));

    let arg0 = ArgBitmask::from_widths([4, 0, 0, 0, 0, 0]);
    let (any_id, any_rule) = base
        .rules()
        .find(|(_, r)| matches!(r.args, ArgPolicy::AnyArgs))
        .expect("an any-args rule");
    let restricted = SyscallRule {
        args: ArgPolicy::whitelist(arg0, [ArgSet::from_slice(&[0])]),
        source: any_rule.source,
    };
    out.push(("narrow-any", with_rule(base, any_id, restricted)));
    if let Some((id, rule)) = base
        .rules()
        .find(|(_, r)| matches!(r.args, ArgPolicy::Whitelist { .. }))
    {
        let ArgPolicy::Whitelist { mask, sets } = &rule.args else {
            unreachable!()
        };
        let mut wider = sets.clone();
        wider.push(mask.masked(&ArgSet::from_slice(&[0x5a5a_5a5a; 6])));
        let widened = SyscallRule {
            args: ArgPolicy::whitelist(*mask, wider),
            source: rule.source,
        };
        out.push(("widen", with_rule(base, id, widened)));
        if sets.len() > 1 {
            let narrowed = SyscallRule {
                args: ArgPolicy::whitelist(*mask, sets[1..].to_vec()),
                source: rule.source,
            };
            out.push(("narrow", with_rule(base, id, narrowed)));
        }
    }

    let errno = match base.default_action() {
        SeccompAction::Errno(e) => SeccompAction::Errno(e + 37),
        _ => SeccompAction::Errno(1),
    };
    let mut rebuilt = ProfileSpec::new(base.name(), errno);
    for (id, rule) in base.rules() {
        rebuilt.allow(id, rule.clone());
    }
    out.push(("errno", rebuilt));
    out
}

#[test]
fn reload_gate_agrees_with_the_full_diff() {
    let fixture = import_docker_json(FIXTURE, "docker-seed")
        .expect("fixture imports")
        .profile;
    let bases = [
        draco::profiles::docker_default(),
        draco::profiles::gvisor_default(),
        draco::profiles::firecracker(),
        fixture,
    ];
    let (mut admitted, mut refused) = (0, 0);
    for base in &bases {
        for (label, mutant) in mutants(base) {
            // Both directions: each mutation's inverse is another one
            // (add/drop, narrow/widen), and errno moves both ways.
            for (old, new) in [(base, &mutant), (&mutant, base)] {
                let what = format!("{} {label} ({} -> {})", base.name(), old.name(), new.name());
                let report = diff_profiles(old, new).expect("diffs").report;
                match refinement_gate(old, new).expect("compiles") {
                    Ok(relation) => {
                        admitted += 1;
                        assert!(report.relation.is_safe_swap(), "{what}: gate admitted");
                        assert_eq!(relation, report.relation, "{what}");
                    }
                    Err(diff) => {
                        refused += 1;
                        assert!(!report.relation.is_safe_swap(), "{what}: gate refused");
                        assert!(!diff.relation.is_safe_swap(), "{what}: {diff:?}");
                        let Some(w) = diff.witness else { continue };
                        let old_stack = compile_stacked(old, FilterLayout::BinaryTree).unwrap();
                        let new_stack = compile_stacked(new, FilterLayout::BinaryTree).unwrap();
                        let o = old_stack.run(&w.data).expect("old runs").action;
                        let n = new_stack.run(&w.data).expect("new runs").action;
                        assert!(
                            n.precedence() > o.precedence()
                                || (n.precedence() == o.precedence() && n != o),
                            "{what}: witness {:?} moves {o} -> {n}",
                            w.data
                        );
                    }
                }
            }
        }
    }
    assert!(
        admitted > 0 && refused > 0,
        "{admitted} admitted, {refused} refused"
    );
}
