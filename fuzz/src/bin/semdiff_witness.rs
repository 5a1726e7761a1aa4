//! Differential target: **semantic policy differ vs concrete VM**.
//!
//! `semdiff` classifies two filters per syscall as equivalent /
//! refines / relaxes / incomparable and emits concrete divergence
//! witnesses. Its claims gate hot reloads and certify compiled DAGs,
//! so an unsound classification is a policy-enforcement bug. The input
//! encodes *two* programs (each length-prefixed, same framing as the
//! other targets) plus a probe tail; the target checks, against the
//! real VM:
//!
//! * every emitted witness re-executes divergently, and the recorded
//!   per-side decisions match the replay;
//! * a syscall classified `Equivalent` never diverges on random inputs;
//! * under an ordered claim (`Refines`/`Relaxes`), any divergence on
//!   random inputs goes the claimed direction only (kernel action
//!   precedence);
//! * the reload gate (`first_unsafe`) admits exactly when the full
//!   report is a safe swap, and any refusal witness re-executes
//!   divergently;
//! * a program never produces a witness against its own compiled DAG.

use draco_bpf::semdiff::{
    diff_filter_vs_dag, diff_filters, first_unsafe, interesting_nrs, DiffConfig, Relation, SemSide,
    SideDecision,
};
use draco_bpf::{CompiledDag, Interpreter, Program, SeccompData, AUDIT_ARCH_X86_64};
use draco_fuzz::{fuzz_target, split_program_bytes, vm_inputs};

fn decide(program: &Program, data: &SeccompData) -> SideDecision {
    match Interpreter::new(program).run(data) {
        Ok(out) => SideDecision::Action(out.action),
        Err(_) => SideDecision::Fault,
    }
}

fuzz_target!(|data: &[u8]| {
    let (raw_a, tail) = split_program_bytes(data);
    let Ok(a) = Program::from_raw(&raw_a) else {
        return;
    };
    let (raw_b, tail) = split_program_bytes(tail);
    let Ok(b) = Program::from_raw(&raw_b) else {
        return;
    };

    let cfg = DiffConfig {
        // Keep one fuzz input cheap; a truncated search only degrades
        // proofs to Bounded, never to an unsound claim.
        max_inputs_per_nr: 512,
        ..DiffConfig::default()
    };
    let probes = vm_inputs(tail, 8);
    let extra = probes
        .iter()
        .filter_map(|&(nr, _, _)| u32::try_from(nr).ok());
    let mut nrs = interesting_nrs(&SemSide::filter(&a), &SemSide::filter(&b), extra);
    nrs.truncate(32);
    let report = diff_filters(&a, &b, &nrs, &cfg);

    // Witness validity: replays divergently, decisions as recorded.
    for w in report.witnesses() {
        let va = decide(&a, &w.data);
        let vb = decide(&b, &w.data);
        assert!(va != vb, "witness {:?} does not diverge on replay", w.data);
        assert_eq!(va, w.old, "old-side decision drifted on {:?}", w.data);
        assert_eq!(vb, w.new, "new-side decision drifted on {:?}", w.data);
    }

    // Classification soundness on random probes.
    for s in &report.syscalls {
        for &(_, ip, args) in &probes {
            let data = SeccompData {
                nr: s.nr as i32,
                arch: AUDIT_ARCH_X86_64,
                instruction_pointer: ip,
                args,
            };
            let va = decide(&a, &data);
            let vb = decide(&b, &data);
            match s.relation {
                Relation::Equivalent => assert_eq!(
                    va, vb,
                    "claimed equivalent at nr {} but diverges on {data:?}",
                    s.nr
                ),
                Relation::Refines | Relation::Relaxes => {
                    let (SideDecision::Action(old), SideDecision::Action(new)) = (va, vb) else {
                        continue;
                    };
                    if old == new {
                        continue;
                    }
                    // precedence(): lower value = more restrictive.
                    let tightens = new.precedence() < old.precedence();
                    assert_eq!(
                        tightens,
                        s.relation == Relation::Refines,
                        "nr {} claimed {:?} but {data:?} moves {old} -> {new}",
                        s.nr,
                        s.relation
                    );
                }
                Relation::Incomparable => {}
            }
        }
    }

    // The reload gate gives the full report's safe/unsafe answer, and
    // its refusal witness is a real divergence.
    let gate = first_unsafe(&SemSide::filter(&a), &SemSide::filter(&b), &nrs, &cfg);
    assert_eq!(
        gate.is_ok(),
        report.relation.is_safe_swap(),
        "gate {gate:?} vs report relation {}",
        report.relation
    );
    if let Err(diff) = gate {
        if let Some(w) = diff.witness {
            let va = decide(&a, &w.data);
            let vb = decide(&b, &w.data);
            assert!(va != vb, "gate witness {:?} does not diverge", w.data);
            assert_eq!((va, vb), (w.old, w.new), "gate witness drifted");
        }
    }

    // A program never witnesses against its own compiled DAG.
    let dag = CompiledDag::compile(&a, &nrs);
    let self_report = diff_filter_vs_dag(&a, &dag, &nrs, &cfg);
    assert!(
        self_report.witnesses().next().is_none(),
        "DAG diverges from its own source program"
    );
});
