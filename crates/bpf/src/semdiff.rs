//! Semantic comparison of seccomp decision functions.
//!
//! Draco's hot-path cache is sound only because the slow-path filter is
//! the ground truth — so a profile change (a Docker-import tweak, a hot
//! reload, a DAG recompile) that silently changes semantics is the
//! scariest bug class in the system. This module answers "is the new
//! policy safe to swap in?" *statically*: given two decision functions
//! (filters, filter stacks, or a filter and its [`CompiledDag`]), it
//! classifies their relationship **per syscall** as a [`Relation`]:
//!
//! * [`Relation::Equivalent`] — identical action on every input;
//! * [`Relation::Refines`] — the new side is at least as restrictive
//!   everywhere and strictly more restrictive somewhere (a safe
//!   tightening under the kernel's most-restrictive action precedence);
//! * [`Relation::Relaxes`] — the new side permits something the old
//!   side denied (or weakens a denial);
//! * [`Relation::Incomparable`] — divergence in both directions, a
//!   same-precedence action change (e.g. `errno(1)` → `errno(2)`), or
//!   no ordering provable within the search budget.
//!
//! # How it decides
//!
//! The comparison is layered, cheapest first:
//!
//! 1. **Product abstract interpretation.** Both sides are run through
//!    the [`crate::analysis`] abstract domain (interval × known-bits ×
//!    byte-taint × symbolic-field) with the syscall number and
//!    architecture pinned, each stack element's verdict combined
//!    most-restrictively exactly like kernel filter stacking. If both
//!    sides' decisions are proven constant, the relation follows
//!    directly from [`SeccompAction::precedence`] — proof
//!    [`Proof::Abstract`], with at most one probe execution (to keep
//!    any witness VM-backed).
//! 2. **Bounded concrete search.** Where the abstract verdict is
//!    undecided, a symbolic scan over both programs derives, per
//!    `seccomp_data` field, the masked-compare predicates the decision
//!    can depend on. The compare boundaries (`k`, `k±1`, mask-overwrite
//!    combinations) shrink the input space to an enumerable candidate
//!    grid, which is executed through the *real* VM (or DAG) on both
//!    sides. When every program is mask-compare simple and every
//!    field's predicate family is boundary-complete, the grid provably
//!    covers every decision region and the search is
//!    [`Proof::Exhaustive`] — `Equivalent` may be claimed. Otherwise
//!    the search is [`Proof::Bounded`]: divergences found are real
//!    (they come with a VM-verified [`Witness`]), but equivalence is
//!    *never* claimed from a bounded search.
//!
//! Sides that execute through a [`CompiledDag`] are never resolved by
//! the abstract shortcut alone: the DAG is always concretely exercised,
//! so the compile-time self-check actually runs the artifact it
//! certifies. Candidate derivation still comes from the *source*
//! programs — sound for the self-check because the DAG's decision
//! boundaries are lowered from those very compares.
//!
//! Every reported witness is an input that was actually executed on
//! both sides and observed to diverge — witnesses are never synthesized
//! from the abstract pass alone (differentially property-tested below
//! and fuzzed by the `semdiff_witness` target).
//!
//! [`diff_sides`] builds the full per-syscall report; [`first_unsafe`],
//! the reload gate, gives only its safe/unsafe answer from the same
//! per-syscall walk, stopping at the first unsafe syscall.

use std::collections::{BTreeMap, HashSet};
use std::convert::Infallible;
use std::ops::ControlFlow;
use std::sync::OnceLock;

use crate::analysis::{self, AnalysisConfig};
use crate::insn::MEMWORDS;
use crate::{
    AluOp, CompiledDag, Cond, Insn, Interpreter, Program, SeccompAction, SeccompData, Src,
    Verdict, AUDIT_ARCH_X86_64, SECCOMP_DATA_SIZE,
};
use draco_syscalls::ArgBitmask;

/// Byte offset where the argument area starts in `seccomp_data`.
const ARG_BYTE_BASE: u32 = 16;

/// Word offsets of the instruction pointer halves.
const IP_LO: u32 = 8;
const IP_HI: u32 = 12;

/// How two decision functions relate, per syscall or overall.
///
/// The four points form a join lattice with [`Relation::Equivalent`] at
/// the bottom and [`Relation::Incomparable`] at the top; per-syscall
/// results [`Relation::join`] into the report-level answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Relation {
    /// Identical action on every input.
    Equivalent,
    /// The new side denies a superset: at least as restrictive
    /// everywhere, strictly more restrictive somewhere. Safe to swap in
    /// under a tightening-only reload policy.
    Refines,
    /// The new side is strictly less restrictive somewhere — it permits
    /// (or weakens the denial of) an input the old side denied.
    Relaxes,
    /// Divergence in both directions, a same-precedence action change,
    /// or no ordering provable within the search budget.
    Incomparable,
}

impl Relation {
    /// Lattice join: the weakest claim consistent with both inputs.
    #[must_use]
    pub const fn join(self, other: Relation) -> Relation {
        match (self, other) {
            (Relation::Equivalent, r) | (r, Relation::Equivalent) => r,
            (Relation::Refines, Relation::Refines) => Relation::Refines,
            (Relation::Relaxes, Relation::Relaxes) => Relation::Relaxes,
            _ => Relation::Incomparable,
        }
    }

    /// True if swapping the old side for the new cannot permit anything
    /// new (`Equivalent` or `Refines`).
    #[must_use]
    pub const fn is_safe_swap(self) -> bool {
        matches!(self, Relation::Equivalent | Relation::Refines)
    }

    /// Stable lower-case name (the CLI's JSON schema uses it).
    #[must_use]
    pub const fn as_str(self) -> &'static str {
        match self {
            Relation::Equivalent => "equivalent",
            Relation::Refines => "refines",
            Relation::Relaxes => "relaxes",
            Relation::Incomparable => "incomparable",
        }
    }
}

impl core::fmt::Display for Relation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How a per-syscall relation was established.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Proof {
    /// Both sides' decisions were proven constant by the abstract pass.
    Abstract,
    /// The candidate grid provably covered every decision region of
    /// both sides; the stated relation holds for *all* inputs.
    Exhaustive {
        /// Concrete inputs executed on both sides.
        inputs: u64,
    },
    /// The search was truncated (budget, non-simple program, or
    /// incomplete boundary coverage). Divergences found are real, but
    /// their absence proves nothing — `Equivalent` is never claimed
    /// from a bounded search.
    Bounded {
        /// Concrete inputs executed on both sides.
        inputs: u64,
    },
}

impl Proof {
    /// True if the stated relation is proven for every input.
    #[must_use]
    pub const fn is_proven(self) -> bool {
        matches!(self, Proof::Abstract | Proof::Exhaustive { .. })
    }
}

/// One side's decision on a concrete input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SideDecision {
    /// The side returned this action.
    Action(SeccompAction),
    /// The side faulted at run time (division by a zero `X`).
    Fault,
}

impl core::fmt::Display for SideDecision {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SideDecision::Action(a) => write!(f, "{a}"),
            SideDecision::Fault => f.write_str("fault"),
        }
    }
}

/// A concrete input on which the two sides diverge, together with both
/// decisions. Witnesses are produced by executing *both* sides on the
/// input — never synthesized from the abstract pass alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Witness {
    /// The diverging input.
    pub data: SeccompData,
    /// The old side's decision on it.
    pub old: SideDecision,
    /// The new side's decision on it.
    pub new: SideDecision,
}

/// The per-syscall comparison result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SyscallDiff {
    /// The syscall number the comparison was pinned to.
    pub nr: u32,
    /// The established relation.
    pub relation: Relation,
    /// How it was established.
    pub proof: Proof,
    /// A VM-verified diverging input, when one was found. Relaxing
    /// witnesses are preferred over incomparable ones, which are
    /// preferred over tightening ones.
    pub witness: Option<Witness>,
}

/// The full comparison across all requested syscall numbers.
#[derive(Clone, Debug)]
pub struct DiffReport {
    /// Join of the per-syscall relations.
    pub relation: Relation,
    /// Per-syscall results, in the order the numbers were given
    /// (duplicates removed).
    pub syscalls: Vec<SyscallDiff>,
    /// Total concrete inputs executed (on both sides each).
    pub inputs_executed: u64,
}

impl DiffReport {
    /// Per-syscall entries whose relation is not `Equivalent`.
    pub fn divergent(&self) -> impl Iterator<Item = &SyscallDiff> {
        self.syscalls
            .iter()
            .filter(|s| s.relation != Relation::Equivalent)
    }

    /// All collected witnesses.
    pub fn witnesses(&self) -> impl Iterator<Item = &Witness> {
        self.syscalls.iter().filter_map(|s| s.witness.as_ref())
    }

    /// True if every per-syscall relation is proven (abstract or
    /// exhaustive) rather than merely bounded-searched.
    #[must_use]
    pub fn fully_proven(&self) -> bool {
        self.syscalls.iter().all(|s| s.proof.is_proven())
    }
}

/// Tuning for the comparison.
#[derive(Clone, Copy, Debug)]
pub struct DiffConfig {
    /// Cap on concrete inputs per syscall number. When the candidate
    /// grid exceeds it, enumeration truncates and the proof degrades to
    /// [`Proof::Bounded`].
    pub max_inputs_per_nr: usize,
    /// Architecture word pinned into every input.
    pub arch: u32,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            max_inputs_per_nr: 4096,
            arch: AUDIT_ARCH_X86_64,
        }
    }
}

// ---------------------------------------------------------------------
// Sides: a decision function plus the programs that inform analysis.
// ---------------------------------------------------------------------

/// How one stack element executes.
#[derive(Clone, Copy, Debug)]
enum Exec<'a> {
    /// Interpret the element's source program.
    Vm,
    /// Run this specialized DAG, compiled from the element's source
    /// program (which still drives the abstract pass and candidate
    /// derivation).
    Dag(&'a CompiledDag),
}

#[derive(Clone, Copy, Debug)]
struct Elem<'a> {
    program: &'a Program,
    exec: Exec<'a>,
}

/// One side of a semantic diff: an ordered stack of filters (each
/// optionally executed through its compiled DAG) whose verdicts combine
/// most-restrictively, exactly like kernel filter stacking. An empty
/// side decides its default action for every input.
#[derive(Clone, Debug)]
pub struct SemSide<'a> {
    elems: Vec<Elem<'a>>,
    default_action: SeccompAction,
    /// Per-element predicate facts, harvested on first use so that
    /// [`interesting_nrs`] and the per-syscall walk scan each program
    /// once between them.
    facts: OnceLock<Vec<ProgramFacts>>,
}

impl<'a> SemSide<'a> {
    /// A single filter, executed by the reference interpreter.
    #[must_use]
    pub fn filter(program: &'a Program) -> Self {
        SemSide {
            elems: vec![Elem {
                program,
                exec: Exec::Vm,
            }],
            default_action: SeccompAction::KillProcess,
            facts: OnceLock::new(),
        }
    }

    /// A compiled DAG, executed as such; `source` is the filter it was
    /// compiled from and drives the abstract pass.
    #[must_use]
    pub fn dag(source: &'a Program, dag: &'a CompiledDag) -> Self {
        SemSide {
            elems: vec![Elem {
                program: source,
                exec: Exec::Dag(dag),
            }],
            default_action: SeccompAction::KillProcess,
            facts: OnceLock::new(),
        }
    }

    /// A stack of interpreted filters combined most-restrictively; an
    /// empty stack decides `default_action`.
    #[must_use]
    pub fn stack(
        programs: impl IntoIterator<Item = &'a Program>,
        default_action: SeccompAction,
    ) -> Self {
        SemSide {
            elems: programs
                .into_iter()
                .map(|program| Elem {
                    program,
                    exec: Exec::Vm,
                })
                .collect(),
            default_action,
            facts: OnceLock::new(),
        }
    }

    /// A stack of compiled DAGs (each paired with its source filter)
    /// combined most-restrictively.
    #[must_use]
    pub fn dag_stack(
        pairs: impl IntoIterator<Item = (&'a Program, &'a CompiledDag)>,
        default_action: SeccompAction,
    ) -> Self {
        SemSide {
            elems: pairs
                .into_iter()
                .map(|(program, dag)| Elem {
                    program,
                    exec: Exec::Dag(dag),
                })
                .collect(),
            default_action,
            facts: OnceLock::new(),
        }
    }

    /// Executes the side on one input, combining element verdicts
    /// most-restrictively (kernel stacking semantics).
    fn decide(&self, data: &SeccompData) -> SideDecision {
        if self.elems.is_empty() {
            return SideDecision::Action(self.default_action);
        }
        let mut action = SeccompAction::Allow;
        for elem in &self.elems {
            let out = match elem.exec {
                Exec::Vm => Interpreter::new(elem.program).run(data),
                Exec::Dag(dag) => dag.run(data),
            };
            match out {
                Ok(out) => action = action.most_restrictive(out.action),
                Err(_) => return SideDecision::Fault,
            }
        }
        SideDecision::Action(action)
    }

    /// Abstract summary at one pinned syscall number.
    fn abstract_at(&self, nr: u32, arch: u32) -> SideAbstract {
        let cfg = AnalysisConfig {
            nr: Some(nr),
            arch: Some(arch),
        };
        let mut combined: Option<SeccompAction> = Some(SeccompAction::Allow);
        let mut floor = SeccompAction::Allow;
        let mut mask = ArgBitmask::EMPTY;
        let mut ip_dependent = false;
        let mut may_fault = false;
        for elem in &self.elems {
            let v = analysis::analyze_with(elem.program, &cfg);
            mask = mask.union(v.mask);
            ip_dependent |= v.ip_dependent;
            may_fault |= v.may_fault;
            match v.verdict {
                Verdict::AlwaysAllow => {}
                Verdict::AlwaysDeny(a) => {
                    floor = floor.most_restrictive(a);
                    if let Some(c) = combined.as_mut() {
                        *c = c.most_restrictive(a);
                    }
                }
                Verdict::ArgDependent => combined = None,
            }
        }
        if self.elems.is_empty() {
            combined = Some(self.default_action);
        }
        // A constant KillProcess element pins the whole stack: no other
        // element can out-restrict it, so the stack is constant even if
        // siblings are argument-dependent.
        if combined.is_none() && floor == SeccompAction::KillProcess && !may_fault {
            combined = Some(SeccompAction::KillProcess);
        }
        SideAbstract {
            constant: if may_fault { None } else { combined },
            mask,
            ip_dependent,
            may_fault,
        }
    }

    /// The symbolic scan of every element, computed once per side.
    fn facts(&self) -> &[ProgramFacts] {
        self.facts
            .get_or_init(|| self.elems.iter().map(|e| scan_program(e.program)).collect())
    }

    fn has_dag(&self) -> bool {
        self.elems.iter().any(|e| matches!(e.exec, Exec::Dag(_)))
    }

    /// True if the two sides are structurally identical interpreted
    /// stacks — trivially equivalent without any analysis.
    fn same_structure(&self, other: &SemSide<'_>) -> bool {
        self.elems.len() == other.elems.len()
            && (self.default_action == other.default_action || !self.elems.is_empty())
            && self.elems.iter().zip(other.elems.iter()).all(|(a, b)| {
                matches!((a.exec, b.exec), (Exec::Vm, Exec::Vm))
                    && a.program.insns() == b.program.insns()
            })
    }
}

struct SideAbstract {
    /// `Some(action)` if the side's decision is proven constant at this
    /// syscall number.
    constant: Option<SeccompAction>,
    mask: ArgBitmask,
    ip_dependent: bool,
    may_fault: bool,
}

// ---------------------------------------------------------------------
// Symbolic predicate harvesting (candidate derivation).
// ---------------------------------------------------------------------

/// A compare the decision can branch on: `(field & mask) cond k`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Pred {
    mask: u32,
    cond: Cond,
    k: u32,
}

/// What the symbolic scan learned about one program.
#[derive(Clone, Debug, Default)]
struct ProgramFacts {
    /// Predicates grouped by `seccomp_data` word offset.
    preds: BTreeMap<u32, Vec<Pred>>,
    /// Every compare and return was over a constant or a (masked)
    /// direct field load — the shape for which boundary enumeration is
    /// region-complete.
    simple: bool,
}

/// The symbolic value domain of the scan: just enough provenance to map
/// compare constants back to input fields.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Sym {
    Const(u32),
    /// `field(off) & mask`.
    Masked { off: u32, mask: u32 },
    Opaque,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct SymState {
    a: Sym,
    x: Sym,
    mem: [Sym; MEMWORDS],
}

impl SymState {
    fn entry() -> SymState {
        SymState {
            a: Sym::Const(0),
            x: Sym::Const(0),
            mem: [Sym::Const(0); MEMWORDS],
        }
    }

    fn join(&mut self, other: &SymState) {
        fn j(a: &mut Sym, b: Sym) {
            if *a != b {
                *a = Sym::Opaque;
            }
        }
        j(&mut self.a, other.a);
        j(&mut self.x, other.x);
        for (slot, &o) in self.mem.iter_mut().zip(other.mem.iter()) {
            j(slot, o);
        }
    }
}

fn seed(states: &mut [Option<SymState>], target: usize, st: SymState) {
    match &mut states[target] {
        Some(existing) => existing.join(&st),
        slot @ None => *slot = Some(st),
    }
}

/// One forward program-order scan harvesting compare predicates; the
/// forward-only jump DAG guarantees a single pass suffices. No path
/// refinement is done — extra predicates from infeasible paths only add
/// candidates, never unsoundness.
fn scan_program(program: &Program) -> ProgramFacts {
    let insns = program.insns();
    let n = insns.len();
    let mut states: Vec<Option<SymState>> = vec![None; n];
    states[0] = Some(SymState::entry());
    let mut facts = ProgramFacts {
        preds: BTreeMap::new(),
        simple: true,
    };
    for at in 0..n {
        let Some(mut st) = states[at].take() else {
            continue;
        };
        match insns[at] {
            Insn::LdAbs(off) => {
                st.a = Sym::Masked {
                    off,
                    mask: u32::MAX,
                };
                seed(&mut states, at + 1, st);
            }
            Insn::LdImm(k) => {
                st.a = Sym::Const(k);
                seed(&mut states, at + 1, st);
            }
            Insn::LdMem(i) => {
                st.a = st.mem[i as usize];
                seed(&mut states, at + 1, st);
            }
            Insn::LdLen => {
                st.a = Sym::Const(SECCOMP_DATA_SIZE);
                seed(&mut states, at + 1, st);
            }
            Insn::LdxImm(k) => {
                st.x = Sym::Const(k);
                seed(&mut states, at + 1, st);
            }
            Insn::LdxMem(i) => {
                st.x = st.mem[i as usize];
                seed(&mut states, at + 1, st);
            }
            Insn::LdxLen => {
                st.x = Sym::Const(SECCOMP_DATA_SIZE);
                seed(&mut states, at + 1, st);
            }
            Insn::St(i) => {
                st.mem[i as usize] = st.a;
                seed(&mut states, at + 1, st);
            }
            Insn::Stx(i) => {
                st.mem[i as usize] = st.x;
                seed(&mut states, at + 1, st);
            }
            Insn::Alu(op, src) => {
                let rhs = match src {
                    Src::K(k) => Sym::Const(k),
                    Src::X => st.x,
                };
                st.a = match (op, st.a, rhs) {
                    (AluOp::Div, _, rhs) if !matches!(rhs, Sym::Const(k) if k != 0) => {
                        // A symbolic divisor may be zero at run time: a
                        // reachable fault is not a decision the boundary
                        // grid can account for. (Constant zero divisors
                        // are rejected at validation.)
                        facts.simple = false;
                        Sym::Opaque
                    }
                    (_, Sym::Const(a), Sym::Const(b)) => Sym::Const(fold_alu(op, a, b)),
                    (AluOp::And, Sym::Masked { off, mask }, Sym::Const(m)) => Sym::Masked {
                        off,
                        mask: mask & m,
                    },
                    _ => Sym::Opaque,
                };
                seed(&mut states, at + 1, st);
            }
            Insn::Neg => {
                st.a = match st.a {
                    Sym::Const(v) => Sym::Const(v.wrapping_neg()),
                    _ => Sym::Opaque,
                };
                seed(&mut states, at + 1, st);
            }
            Insn::Ja(off) => {
                seed(&mut states, at + 1 + off as usize, st);
            }
            Insn::Jmp { cond, src, jt, jf } => {
                let rhs = match src {
                    Src::K(k) => Sym::Const(k),
                    Src::X => st.x,
                };
                match (st.a, rhs) {
                    (Sym::Masked { off, mask }, Sym::Const(k)) => {
                        let preds = facts.preds.entry(off).or_default();
                        let pred = Pred { mask, cond, k };
                        if !preds.contains(&pred) {
                            preds.push(pred);
                        }
                    }
                    (Sym::Const(_), Sym::Const(_)) => {}
                    // A compare over an opaque value or between two
                    // fields: the boundary grid cannot cover it.
                    _ => facts.simple = false,
                }
                seed(&mut states, at + 1 + jt as usize, st);
                seed(&mut states, at + 1 + jf as usize, st);
            }
            Insn::RetK(_) => {}
            Insn::RetA => {
                if !matches!(st.a, Sym::Const(_)) {
                    // The return value itself tracks an input field:
                    // action boundaries are not compare boundaries.
                    facts.simple = false;
                }
            }
            Insn::Tax => {
                st.x = st.a;
                seed(&mut states, at + 1, st);
            }
            Insn::Txa => {
                st.a = st.x;
                seed(&mut states, at + 1, st);
            }
        }
    }
    facts
}

fn fold_alu(op: AluOp, a: u32, b: u32) -> u32 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Mul => a.wrapping_mul(b),
        // Constant zero divisors never validate; the `max` only guards
        // the arithmetic here.
        AluOp::Div => a / b.max(1),
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Lsh => a.wrapping_shl(b),
        AluOp::Rsh => a.wrapping_shr(b),
    }
}

/// Cap on candidate values per field; exceeding it degrades the proof
/// to bounded.
const MAX_CANDIDATES_PER_FIELD: usize = 96;

/// Builds the candidate grid for one field from its predicate set.
/// Returns the values and whether they provably cover every region the
/// predicates can distinguish.
fn field_candidates(preds: &[Pred]) -> (Vec<u32>, bool) {
    let mut values: Vec<u32> = vec![0, u32::MAX];
    let mut complete = !preds.is_empty();

    // Region-completeness: group predicates by mask. Within one group
    // the boundary pieces (`k`, `k±1`) hit every interval/point atom of
    // a Jeq/Jgt/Jge family, and both atoms of a lone Jset. Across
    // groups, pairwise-disjoint masks let the overwrite closure below
    // reach every combination of per-group atoms. Anything else
    // (overlapping distinct masks, Jset mixed with other compares on
    // one mask) falls back to a bounded search.
    let mut groups: BTreeMap<u32, Vec<Pred>> = BTreeMap::new();
    for p in preds {
        groups.entry(p.mask).or_default().push(*p);
    }
    let masks: Vec<u32> = groups.keys().copied().collect();
    for (i, &m1) in masks.iter().enumerate() {
        if masks[i + 1..].iter().any(|&m2| m1 & m2 != 0) {
            complete = false;
        }
    }
    for group in groups.values() {
        if group.len() > 1 && group.iter().any(|p| p.cond == Cond::Jset) {
            complete = false;
        }
    }

    // Overwrite closure: for each predicate, splice each boundary piece
    // into every existing candidate's mask bits. Two rounds improve
    // coverage when masks overlap (where the proof is bounded anyway).
    for _ in 0..2 {
        for p in preds {
            let pieces: [u32; 3] = match p.cond {
                Cond::Jeq | Cond::Jgt | Cond::Jge => {
                    [p.k, p.k.wrapping_add(1), p.k.wrapping_sub(1)]
                }
                Cond::Jset => [p.k, 0, 0],
            };
            let snapshot_len = values.len();
            for piece in pieces {
                let piece = piece & p.mask;
                for ci in 0..snapshot_len {
                    let v = (values[ci] & !p.mask) | piece;
                    if !values.contains(&v) {
                        if values.len() >= MAX_CANDIDATES_PER_FIELD {
                            complete = false;
                        } else {
                            values.push(v);
                        }
                    }
                }
            }
        }
    }
    values.sort_unstable();
    values.dedup();
    (values, complete)
}

// ---------------------------------------------------------------------
// The per-syscall comparison.
// ---------------------------------------------------------------------

/// Divergence evidence accumulated over the concrete grid for one
/// syscall, keeping the first witness of each kind.
#[derive(Default)]
struct Evidence {
    tighten: Option<Witness>,
    relax: Option<Witness>,
    incomparable: Option<Witness>,
}

impl Evidence {
    fn record(&mut self, data: SeccompData, old: SideDecision, new: SideDecision) {
        let slot = match (old, new) {
            (SideDecision::Action(o), SideDecision::Action(n)) => {
                if o == n {
                    return;
                } else if n.precedence() < o.precedence() {
                    &mut self.tighten
                } else if n.precedence() > o.precedence() {
                    &mut self.relax
                } else {
                    // Same restrictiveness class, different action
                    // (e.g. an errno value change): unordered.
                    &mut self.incomparable
                }
            }
            (SideDecision::Fault, SideDecision::Fault) => return,
            _ => &mut self.incomparable,
        };
        if slot.is_none() {
            *slot = Some(Witness { data, old, new });
        }
    }

    fn classify(self, exhaustive: bool, inputs: u64) -> (Relation, Proof, Option<Witness>) {
        let proof = if exhaustive {
            Proof::Exhaustive { inputs }
        } else {
            Proof::Bounded { inputs }
        };
        match (self.relax, self.incomparable, self.tighten) {
            (Some(w), _, Some(_)) => (Relation::Incomparable, proof, Some(w)),
            (Some(w), _, None) => (Relation::Relaxes, proof, Some(w)),
            (None, Some(w), _) => (Relation::Incomparable, proof, Some(w)),
            (None, None, Some(w)) => (Relation::Refines, proof, Some(w)),
            (None, None, None) if exhaustive => (Relation::Equivalent, proof, None),
            // No divergence found, but the grid was not region-complete:
            // equivalence cannot be claimed from absence of evidence.
            (None, None, None) => (Relation::Incomparable, proof, None),
        }
    }
}

/// Compares two decision functions at the given syscall numbers.
///
/// This is the general entry point; [`diff_filters`] and
/// [`diff_filter_vs_dag`] wrap it for the common shapes, and
/// `draco-profiles` lifts it to whole profile stacks.
#[must_use]
pub fn diff_sides(
    old: &SemSide<'_>,
    new: &SemSide<'_>,
    nrs: &[u32],
    cfg: &DiffConfig,
) -> DiffReport {
    let mut syscalls = Vec::new();
    let mut inputs_executed = 0u64;
    let ControlFlow::Continue(()) = walk::<Infallible>(old, new, nrs, cfg, |diff, inputs| {
        inputs_executed = inputs_executed.saturating_add(inputs);
        syscalls.push(diff);
        ControlFlow::Continue(())
    });
    let relation = syscalls
        .iter()
        .fold(Relation::Equivalent, |acc, s| acc.join(s.relation));
    DiffReport {
        relation,
        syscalls,
        inputs_executed,
    }
}

/// The reload gate: the same safe/unsafe answer as
/// `diff_sides(old, new, nrs, cfg).relation.is_safe_swap()`, without
/// building the report.
///
/// Before any abstract interpretation, every probe number runs once on
/// both sides with zero arguments; the first one the new side answers
/// with a higher-precedence (less restrictive) action is refused at
/// once, as [`Relation::Relaxes`] with that VM-executed input as its
/// witness. (The full comparison may find that syscall `Incomparable`:
/// the fast path proves only that it is not a safe swap.) Otherwise the
/// per-syscall walk stops at the first syscall whose relation is not a
/// safe swap.
///
/// # Errors
///
/// The first offending [`SyscallDiff`], carrying its witness when the
/// search found one.
pub fn first_unsafe(
    old: &SemSide<'_>,
    new: &SemSide<'_>,
    nrs: &[u32],
    cfg: &DiffConfig,
) -> Result<Relation, SyscallDiff> {
    if !old.same_structure(new) {
        if let Some(diff) = zero_arg_relaxation(old, new, nrs, cfg.arch) {
            return Err(diff);
        }
    }
    let mut relation = Relation::Equivalent;
    let walked = walk(old, new, nrs, cfg, |diff, _| {
        if diff.relation.is_safe_swap() {
            relation = relation.join(diff.relation);
            ControlFlow::Continue(())
        } else {
            ControlFlow::Break(diff)
        }
    });
    match walked {
        ControlFlow::Continue(()) => Ok(relation),
        ControlFlow::Break(diff) => Err(diff),
    }
}

/// The gate's fast path: the first probe number on which the new side,
/// run with zero arguments, is less restrictive than the old.
fn zero_arg_relaxation(
    old: &SemSide<'_>,
    new: &SemSide<'_>,
    nrs: &[u32],
    arch: u32,
) -> Option<SyscallDiff> {
    nrs.iter().find_map(|&nr| {
        let data = build_data(nr, arch, 0, [0; 6]);
        let (wo, wn) = (old.decide(&data), new.decide(&data));
        let (SideDecision::Action(o), SideDecision::Action(n)) = (wo, wn) else {
            return None;
        };
        (n.precedence() > o.precedence()).then_some(SyscallDiff {
            nr,
            relation: Relation::Relaxes,
            proof: Proof::Bounded { inputs: 1 },
            witness: Some(Witness {
                data,
                old: wo,
                new: wn,
            }),
        })
    })
}

/// The one per-syscall walk behind [`diff_sides`] and [`first_unsafe`]:
/// compares each distinct number in the order given (duplicates
/// removed), hands every result and its executed-input count to
/// `visit`, and stops as soon as `visit` breaks.
fn walk<B>(
    old: &SemSide<'_>,
    new: &SemSide<'_>,
    nrs: &[u32],
    cfg: &DiffConfig,
    mut visit: impl FnMut(SyscallDiff, u64) -> ControlFlow<B>,
) -> ControlFlow<B> {
    let same = old.same_structure(new);
    let mut seen = HashSet::with_capacity(nrs.len());
    for &nr in nrs {
        if !seen.insert(nr) {
            continue;
        }
        let (diff, inputs) = if same {
            let diff = SyscallDiff {
                nr,
                relation: Relation::Equivalent,
                proof: Proof::Abstract,
                witness: None,
            };
            (diff, 0)
        } else {
            diff_nr(old, new, nr, cfg)
        };
        visit(diff, inputs)?;
    }
    ControlFlow::Continue(())
}

fn diff_nr(old: &SemSide<'_>, new: &SemSide<'_>, nr: u32, cfg: &DiffConfig) -> (SyscallDiff, u64) {
    let a_old = old.abstract_at(nr, cfg.arch);
    let a_new = new.abstract_at(nr, cfg.arch);

    // Layer 1: the product of the two abstract interpretations decides
    // outright when both sides are constant — except when a side runs a
    // compiled DAG, which must always be concretely exercised (layer 2
    // then costs exactly one probe input, since a constant side has an
    // empty argument mask).
    if !old.has_dag() && !new.has_dag() {
        if let (Some(o), Some(n)) = (a_old.constant, a_new.constant) {
            let relation = relate_actions(o, n);
            let witness = if relation == Relation::Equivalent {
                None
            } else {
                // The decisions are input-independent, so any probe
                // realizes the divergence; executing it keeps the
                // witness VM-backed.
                let data = build_data(nr, cfg.arch, 0, [0; 6]);
                let (wo, wn) = (old.decide(&data), new.decide(&data));
                debug_assert_eq!(wo, SideDecision::Action(o), "abstract constant vs VM");
                debug_assert_eq!(wn, SideDecision::Action(n), "abstract constant vs VM");
                Some(Witness {
                    data,
                    old: wo,
                    new: wn,
                })
            };
            let executed = u64::from(witness.is_some());
            return (
                SyscallDiff {
                    nr,
                    relation,
                    proof: Proof::Abstract,
                    witness,
                },
                executed,
            );
        }
    }

    // Layer 2: bounded concrete search over the derived candidate grid.
    let mut fields: Vec<u32> = Vec::new();
    for mask in [a_old.mask, a_new.mask] {
        let raw = mask.raw();
        for byte in 0..48u32 {
            if raw & (1u64 << byte) != 0 {
                let off = ARG_BYTE_BASE + (byte / 8) * 8 + ((byte % 8) / 4) * 4;
                if !fields.contains(&off) {
                    fields.push(off);
                }
            }
        }
    }
    if a_old.ip_dependent || a_new.ip_dependent {
        fields.push(IP_LO);
        fields.push(IP_HI);
    }
    fields.sort_unstable();
    fields.dedup();

    let (old_facts, new_facts) = (old.facts(), new.facts());
    let mut simple = !a_old.may_fault && !a_new.may_fault;
    for f in old_facts.iter().chain(new_facts.iter()) {
        simple &= f.simple;
    }
    let mut grids: Vec<Vec<u32>> = Vec::with_capacity(fields.len());
    let mut complete = simple;
    for &off in &fields {
        let mut preds: Vec<Pred> = Vec::new();
        for f in old_facts.iter().chain(new_facts.iter()) {
            if let Some(ps) = f.preds.get(&off) {
                for p in ps {
                    if !preds.contains(p) {
                        preds.push(*p);
                    }
                }
            }
        }
        let (values, field_complete) = field_candidates(&preds);
        complete &= field_complete;
        grids.push(values);
    }

    // Odometer over the grid, truncated at the budget.
    let total: u128 = grids.iter().map(|g| g.len() as u128).product();
    let budget = cfg.max_inputs_per_nr.max(1);
    let mut evidence = Evidence::default();
    let mut idx = vec![0usize; grids.len()];
    let mut executed = 0u64;
    loop {
        let mut ip = 0u64;
        let mut args = [0u64; 6];
        for (i, &off) in fields.iter().enumerate() {
            place_field(off, u64::from(grids[i][idx[i]]), &mut ip, &mut args);
        }
        let data = build_data(nr, cfg.arch, ip, args);
        evidence.record(data, old.decide(&data), new.decide(&data));
        executed += 1;
        if executed as usize >= budget || !advance(&mut idx, &grids) {
            break;
        }
    }
    let exhaustive = complete && u128::from(executed) >= total;
    let (relation, proof, witness) = evidence.classify(exhaustive, executed);
    (
        SyscallDiff {
            nr,
            relation,
            proof,
            witness,
        },
        executed,
    )
}

fn place_field(off: u32, value: u64, ip: &mut u64, args: &mut [u64; 6]) {
    match off {
        IP_LO => *ip |= value,
        IP_HI => *ip |= value << 32,
        _ => {
            let arg = ((off - ARG_BYTE_BASE) / 8) as usize;
            let hi_word = (off - ARG_BYTE_BASE) % 8 == 4;
            args[arg] |= if hi_word { value << 32 } else { value };
        }
    }
}

fn advance(idx: &mut [usize], grids: &[Vec<u32>]) -> bool {
    for (slot, grid) in idx.iter_mut().zip(grids.iter()) {
        *slot += 1;
        if *slot < grid.len() {
            return true;
        }
        *slot = 0;
    }
    false
}

fn build_data(nr: u32, arch: u32, ip: u64, args: [u64; 6]) -> SeccompData {
    SeccompData {
        nr: nr as i32,
        arch,
        instruction_pointer: ip,
        args,
    }
}

const fn relate_actions(old: SeccompAction, new: SeccompAction) -> Relation {
    if old.encode() == new.encode() {
        Relation::Equivalent
    } else if new.precedence() < old.precedence() {
        Relation::Refines
    } else if new.precedence() > old.precedence() {
        Relation::Relaxes
    } else {
        Relation::Incomparable
    }
}

/// Compares two filters.
#[must_use]
pub fn diff_filters(old: &Program, new: &Program, nrs: &[u32], cfg: &DiffConfig) -> DiffReport {
    diff_sides(&SemSide::filter(old), &SemSide::filter(new), nrs, cfg)
}

/// Compares a filter against a [`CompiledDag`] compiled from it — the
/// compiler self-check. Any relation but `Equivalent` (or
/// `Incomparable` with no witness, for programs beyond the exhaustive
/// grid) indicates a specialization bug; a witness is a concrete input
/// on which the DAG diverges from its source.
#[must_use]
pub fn diff_filter_vs_dag(
    source: &Program,
    dag: &CompiledDag,
    nrs: &[u32],
    cfg: &DiffConfig,
) -> DiffReport {
    diff_sides(
        &SemSide::filter(source),
        &SemSide::dag(source, dag),
        nrs,
        cfg,
    )
}

/// Derives a syscall-number probe set from the compares both sides
/// perform on the `nr` word: every compared constant, its neighbours,
/// zero, and the extras the caller supplies (typically both profiles'
/// whitelists plus an out-of-table probe). Sorted and deduplicated.
#[must_use]
pub fn interesting_nrs(
    old: &SemSide<'_>,
    new: &SemSide<'_>,
    extra: impl IntoIterator<Item = u32>,
) -> Vec<u32> {
    let mut nrs: Vec<u32> = vec![0];
    for side in [old, new] {
        for facts in side.facts() {
            if let Some(preds) = facts.preds.get(&SeccompData::OFF_NR) {
                for p in preds {
                    nrs.push(p.k);
                    nrs.push(p.k.wrapping_add(1));
                    nrs.push(p.k.wrapping_sub(1));
                }
            }
        }
    }
    nrs.extend(extra);
    nrs.sort_unstable();
    nrs.dedup();
    nrs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProgramBuilder;

    const ALLOW: u32 = 0x7fff_0000;
    const KILL: u32 = 0x8000_0000;

    fn jeq(k: u32, jt: u8, jf: u8) -> Insn {
        Insn::Jmp {
            cond: Cond::Jeq,
            src: Src::K(k),
            jt,
            jf,
        }
    }

    fn prog(insns: Vec<Insn>) -> Program {
        Program::new(insns).expect("valid program")
    }

    /// Allow the given nrs (any args), kill everything else.
    fn nr_whitelist(nrs: &[u32]) -> Program {
        let mut b = ProgramBuilder::new();
        b.load_nr();
        for (i, &nr) in nrs.iter().enumerate() {
            b.jeq_imm(nr, "allow", format!("n{i}"));
            b.label(format!("n{i}"));
        }
        b.ret_action(SeccompAction::KillProcess);
        b.label("allow");
        b.ret_action(SeccompAction::Allow);
        b.build().expect("valid whitelist")
    }

    #[test]
    fn identical_filters_are_equivalent_abstractly() {
        let a = nr_whitelist(&[0, 1, 39]);
        let b = nr_whitelist(&[0, 1, 39]);
        let report = diff_filters(&a, &b, &[0, 1, 2, 39, 500], &DiffConfig::default());
        assert_eq!(report.relation, Relation::Equivalent);
        assert_eq!(report.inputs_executed, 0, "same structure needs no VM runs");
        assert!(report.fully_proven());
    }

    #[test]
    fn dropping_a_syscall_refines() {
        let old = nr_whitelist(&[0, 1, 39]);
        let new = nr_whitelist(&[0, 39]);
        let nrs = interesting_nrs(&SemSide::filter(&old), &SemSide::filter(&new), [500u32]);
        let report = diff_filters(&old, &new, &nrs, &DiffConfig::default());
        assert_eq!(report.relation, Relation::Refines);
        let w = report.witnesses().next().expect("tightening witness");
        assert_eq!(w.data.nr, 1);
        assert_eq!(w.old, SideDecision::Action(SeccompAction::Allow));
        assert_eq!(w.new, SideDecision::Action(SeccompAction::KillProcess));
    }

    #[test]
    fn adding_a_syscall_relaxes_with_vm_verified_witness() {
        let old = nr_whitelist(&[0]);
        let new = nr_whitelist(&[0, 7]);
        let nrs = interesting_nrs(&SemSide::filter(&old), &SemSide::filter(&new), []);
        let report = diff_filters(&old, &new, &nrs, &DiffConfig::default());
        assert_eq!(report.relation, Relation::Relaxes);
        let w = report.witnesses().next().expect("relaxing witness");
        // Re-execute the witness: it must actually diverge in the VM.
        let o = Interpreter::new(&old).run(&w.data).unwrap();
        let n = Interpreter::new(&new).run(&w.data).unwrap();
        assert_ne!(o.action, n.action);
    }

    #[test]
    fn errno_value_change_is_incomparable() {
        let old = prog(vec![Insn::RetK(SeccompAction::Errno(1).encode())]);
        let new = prog(vec![Insn::RetK(SeccompAction::Errno(2).encode())]);
        let report = diff_filters(&old, &new, &[0], &DiffConfig::default());
        assert_eq!(report.relation, Relation::Incomparable);
        let w = report.witnesses().next().expect("witness");
        assert_eq!(w.old, SideDecision::Action(SeccompAction::Errno(1)));
        assert_eq!(w.new, SideDecision::Action(SeccompAction::Errno(2)));
    }

    #[test]
    fn arg_tightening_is_found_exhaustively() {
        // old: allow nr 5 when arg0-lo == 3 or == 4; new: only == 3.
        let arg0 = SeccompData::off_arg_lo(0);
        let old = prog(vec![
            Insn::LdAbs(arg0),
            jeq(3, 1, 0),
            jeq(4, 0, 1),
            Insn::RetK(ALLOW),
            Insn::RetK(KILL),
        ]);
        let new = prog(vec![
            Insn::LdAbs(arg0),
            jeq(3, 0, 1),
            Insn::RetK(ALLOW),
            Insn::RetK(KILL),
        ]);
        let report = diff_filters(&old, &new, &[5], &DiffConfig::default());
        assert_eq!(report.relation, Relation::Refines);
        assert!(report.fully_proven(), "simple compares must be exhaustive");
        let w = report.witnesses().next().expect("witness");
        assert_eq!(w.data.args[0], 4);
    }

    #[test]
    fn masked_compare_equivalence_is_proven() {
        // Both allow iff (arg1-lo & 0xff00) == 0x1200, spelled with
        // different surrounding code.
        let arg1 = SeccompData::off_arg_lo(1);
        let a = prog(vec![
            Insn::LdAbs(arg1),
            Insn::Alu(AluOp::And, Src::K(0xff00)),
            jeq(0x1200, 0, 1),
            Insn::RetK(ALLOW),
            Insn::RetK(KILL),
        ]);
        let b = prog(vec![
            Insn::LdAbs(arg1),
            Insn::Alu(AluOp::And, Src::K(0xffff)),
            Insn::Alu(AluOp::And, Src::K(0xff00)),
            jeq(0x1200, 1, 0),
            Insn::RetK(KILL),
            Insn::RetK(ALLOW),
        ]);
        let report = diff_filters(&a, &b, &[9], &DiffConfig::default());
        assert_eq!(report.relation, Relation::Equivalent, "{report:?}");
        assert!(report.fully_proven());
        assert!(report.inputs_executed > 0, "decided by the concrete grid");
    }

    #[test]
    fn bounded_search_never_claims_equivalence() {
        // Decision keyed on arg0-lo * 3 == 9: the multiply makes the
        // program non-simple, so even though the bounded search finds no
        // divergence the verdict must stay incomparable, not equivalent.
        let arg0 = SeccompData::off_arg_lo(0);
        let a = prog(vec![
            Insn::LdAbs(arg0),
            Insn::Alu(AluOp::Mul, Src::K(3)),
            jeq(9, 0, 1),
            Insn::RetK(ALLOW),
            Insn::RetK(KILL),
        ]);
        let b = prog(vec![
            Insn::LdAbs(arg0),
            Insn::Alu(AluOp::Mul, Src::K(3)),
            jeq(9, 1, 0),
            Insn::RetK(KILL),
            Insn::RetK(ALLOW),
        ]);
        let report = diff_filters(&a, &b, &[1], &DiffConfig::default());
        assert_eq!(report.relation, Relation::Incomparable);
        assert!(!report.fully_proven());
        assert!(report.witnesses().next().is_none(), "no real divergence");
    }

    #[test]
    fn dag_selfcheck_is_equivalent_and_concretely_exercised() {
        let p = nr_whitelist(&[0, 1, 39, 231]);
        let dag = CompiledDag::compile(&p, &[0, 1, 39, 231]);
        let nrs = [0u32, 1, 2, 38, 39, 40, 231, 5000];
        let report = diff_filter_vs_dag(&p, &dag, &nrs, &DiffConfig::default());
        assert_eq!(report.relation, Relation::Equivalent, "{report:?}");
        assert!(
            report.inputs_executed >= nrs.len() as u64,
            "a DAG side must be executed, not trusted abstractly"
        );
    }

    #[test]
    fn stack_combining_is_most_restrictive() {
        // Stack [allow-all, deny-7] vs the single deny-7 filter.
        let allow_all = prog(vec![Insn::RetK(ALLOW)]);
        let deny7 = prog(vec![
            Insn::LdAbs(0),
            jeq(7, 0, 1),
            Insn::RetK(KILL),
            Insn::RetK(ALLOW),
        ]);
        let stack = SemSide::stack([&allow_all, &deny7], SeccompAction::KillProcess);
        let single = SemSide::filter(&deny7);
        let report = diff_sides(&stack, &single, &[6, 7, 8], &DiffConfig::default());
        assert_eq!(report.relation, Relation::Equivalent, "{report:?}");
    }

    #[test]
    fn empty_side_uses_default_action() {
        let deny_all = prog(vec![Insn::RetK(KILL)]);
        let empty = SemSide::stack([], SeccompAction::KillProcess);
        let report = diff_sides(
            &empty,
            &SemSide::filter(&deny_all),
            &[0, 9],
            &DiffConfig::default(),
        );
        assert_eq!(report.relation, Relation::Equivalent);
    }

    #[test]
    fn constant_kill_element_pins_a_stack() {
        // [kill-all, arg-dependent] is constant KillProcess: the product
        // pass should decide it abstractly, with no concrete runs.
        let kill_all = prog(vec![Insn::RetK(KILL)]);
        let argdep = prog(vec![
            Insn::LdAbs(SeccompData::off_arg_lo(0)),
            jeq(1, 0, 1),
            Insn::RetK(ALLOW),
            Insn::RetK(KILL),
        ]);
        let stack = SemSide::stack([&kill_all, &argdep], SeccompAction::KillProcess);
        let single = SemSide::filter(&kill_all);
        let report = diff_sides(&stack, &single, &[3], &DiffConfig::default());
        assert_eq!(report.relation, Relation::Equivalent);
        assert_eq!(report.inputs_executed, 0, "decided abstractly");
    }

    #[test]
    fn interesting_nrs_cover_compare_boundaries() {
        let p = nr_whitelist(&[39]);
        let nrs = interesting_nrs(&SemSide::filter(&p), &SemSide::filter(&p), [1000u32]);
        for expected in [0u32, 38, 39, 40, 1000] {
            assert!(nrs.contains(&expected), "{expected} missing from {nrs:?}");
        }
    }

    #[test]
    fn gate_refuses_an_added_syscall_on_the_zero_arg_probe() {
        let old = nr_whitelist(&[0, 1]);
        let new = nr_whitelist(&[0, 1, 7]);
        let (o, n) = (SemSide::filter(&old), SemSide::filter(&new));
        let nrs = interesting_nrs(&o, &n, [500u32]);
        let diff = first_unsafe(&o, &n, &nrs, &DiffConfig::default()).unwrap_err();
        assert_eq!((diff.nr, diff.relation), (7, Relation::Relaxes));
        assert_eq!(
            diff.proof,
            Proof::Bounded { inputs: 1 },
            "one probe, no search"
        );
        let w = diff.witness.expect("VM-executed witness");
        assert_eq!(w.data.args, [0; 6]);
        assert_eq!(w.new, SideDecision::Action(SeccompAction::Allow));
    }

    #[test]
    fn gate_finds_an_argument_relaxation_in_the_walk() {
        // old: allow when arg0-lo == 3; new: also when == 4. Zero
        // arguments are denied on both sides, so the walk must find it,
        // and it stops at the first number given.
        let arg0 = SeccompData::off_arg_lo(0);
        let old = prog(vec![
            Insn::LdAbs(arg0),
            jeq(3, 0, 1),
            Insn::RetK(ALLOW),
            Insn::RetK(KILL),
        ]);
        let new = prog(vec![
            Insn::LdAbs(arg0),
            jeq(3, 1, 0),
            jeq(4, 0, 1),
            Insn::RetK(ALLOW),
            Insn::RetK(KILL),
        ]);
        let (o, n) = (SemSide::filter(&old), SemSide::filter(&new));
        let diff = first_unsafe(&o, &n, &[5, 1], &DiffConfig::default()).unwrap_err();
        assert_eq!((diff.nr, diff.relation), (5, Relation::Relaxes));
        assert_eq!(diff.witness.expect("witness").data.args[0], 4);
    }

    #[test]
    fn gate_admits_with_the_joined_relation() {
        let old = nr_whitelist(&[0, 1, 39]);
        let new = nr_whitelist(&[0, 39]);
        let (o, n) = (SemSide::filter(&old), SemSide::filter(&new));
        let nrs = interesting_nrs(&o, &n, [500u32]);
        let cfg = DiffConfig::default();
        assert_eq!(first_unsafe(&o, &n, &nrs, &cfg), Ok(Relation::Refines));
        assert_eq!(first_unsafe(&o, &o, &nrs, &cfg), Ok(Relation::Equivalent));
    }

    #[test]
    fn walk_keeps_the_given_order_without_duplicates() {
        let a = nr_whitelist(&[1]);
        let b = nr_whitelist(&[2]);
        let report = diff_filters(&a, &b, &[9, 2, 1, 9, 2], &DiffConfig::default());
        let order: Vec<u32> = report.syscalls.iter().map(|s| s.nr).collect();
        assert_eq!(order, vec![9, 2, 1]);
    }

    #[test]
    fn relation_join_is_a_lattice() {
        use Relation::{Equivalent, Incomparable, Refines, Relaxes};
        for r in [Equivalent, Refines, Relaxes, Incomparable] {
            assert_eq!(Equivalent.join(r), r);
            assert_eq!(r.join(Equivalent), r);
            assert_eq!(r.join(Incomparable), Incomparable);
            assert_eq!(r.join(r), r);
        }
        assert_eq!(Refines.join(Relaxes), Incomparable);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// Small valid programs biased toward masked-compare chains over
        /// nr and the first arguments — the shapes real profiles use.
        fn arb_program() -> impl Strategy<Value = Program> {
            let block = (
                prop_oneof![
                    Just(SeccompData::OFF_NR),
                    Just(SeccompData::off_arg_lo(0)),
                    Just(SeccompData::off_arg_hi(0)),
                    Just(SeccompData::off_arg_lo(1)),
                ],
                0u32..6,
                proptest::option::of(1u32..0x300),
            );
            (proptest::collection::vec(block, 1..4), any::<bool>()).prop_map(
                |(blocks, kill_tail)| {
                    let mut b = ProgramBuilder::new();
                    for (i, (off, k, mask)) in blocks.iter().enumerate() {
                        b.insn(Insn::LdAbs(*off));
                        if let Some(m) = mask {
                            b.insn(Insn::Alu(AluOp::And, Src::K(*m)));
                        }
                        b.jeq_imm(*k, "allow", format!("n{i}"));
                        b.label(format!("n{i}"));
                    }
                    b.ret_action(if kill_tail {
                        SeccompAction::KillProcess
                    } else {
                        SeccompAction::Errno(1)
                    });
                    b.label("allow");
                    b.ret_action(SeccompAction::Allow);
                    b.build().expect("generated program is valid")
                },
            )
        }

        proptest! {
            /// Pairs classified `Equivalent` never diverge on random
            /// concrete inputs — the core soundness statement.
            #[test]
            fn equivalent_never_diverges(
                a in arb_program(),
                b in arb_program(),
                probes in proptest::collection::vec(
                    proptest::array::uniform6(0u64..8), 1..24),
            ) {
                let nrs = interesting_nrs(
                    &SemSide::filter(&a), &SemSide::filter(&b), 0..8u32);
                let report = diff_filters(&a, &b, &nrs, &DiffConfig::default());
                for s in &report.syscalls {
                    if s.relation != Relation::Equivalent {
                        continue;
                    }
                    for args in &probes {
                        let data = SeccompData {
                            nr: s.nr as i32,
                            arch: AUDIT_ARCH_X86_64,
                            instruction_pointer: 0,
                            args: *args,
                        };
                        let va = Interpreter::new(&a).run(&data).unwrap().action;
                        let vb = Interpreter::new(&b).run(&data).unwrap().action;
                        prop_assert_eq!(va, vb,
                            "claimed equivalent at nr {} but diverges on {:?}",
                            s.nr, data);
                    }
                }
            }

            /// Every emitted witness re-executes divergently in the VM,
            /// and the recorded decisions match the replay.
            #[test]
            fn witnesses_diverge(a in arb_program(), b in arb_program()) {
                let nrs = interesting_nrs(
                    &SemSide::filter(&a), &SemSide::filter(&b), 0..8u32);
                let report = diff_filters(&a, &b, &nrs, &DiffConfig::default());
                for w in report.witnesses() {
                    let va = Interpreter::new(&a).run(&w.data).unwrap().action;
                    let vb = Interpreter::new(&b).run(&w.data).unwrap().action;
                    prop_assert!(va != vb, "witness {:?} does not diverge", w.data);
                    prop_assert_eq!(SideDecision::Action(va), w.old);
                    prop_assert_eq!(SideDecision::Action(vb), w.new);
                }
            }

            /// The gate admits exactly the pairs the full report calls a
            /// safe swap, with the joined relation; each refusal names an
            /// unsafe syscall, and its witness replays as recorded.
            #[test]
            fn gate_agrees_with_full_diff(a in arb_program(), b in arb_program()) {
                let (sa, sb) = (SemSide::filter(&a), SemSide::filter(&b));
                let nrs = interesting_nrs(&sa, &sb, 0..8u32);
                let cfg = DiffConfig::default();
                let report = diff_sides(&sa, &sb, &nrs, &cfg);
                match first_unsafe(&sa, &sb, &nrs, &cfg) {
                    Ok(relation) => prop_assert_eq!(relation, report.relation),
                    Err(diff) => {
                        prop_assert!(!report.relation.is_safe_swap(), "{:?}", report);
                        prop_assert!(!diff.relation.is_safe_swap());
                        if let Some(w) = diff.witness {
                            let va = Interpreter::new(&a).run(&w.data).unwrap().action;
                            let vb = Interpreter::new(&b).run(&w.data).unwrap().action;
                            prop_assert_eq!(SideDecision::Action(va), w.old);
                            prop_assert_eq!(SideDecision::Action(vb), w.new);
                            prop_assert!(vb.precedence() >= va.precedence() && va != vb);
                        }
                    }
                }
            }

            /// A filter never diverges from its own compiled DAG, and no
            /// ordered relation is ever claimed for the pair — the DAG
            /// compiler is semantics-preserving.
            #[test]
            fn dag_selfcheck_never_witnesses(p in arb_program()) {
                let side = SemSide::filter(&p);
                let nrs = interesting_nrs(&side, &side, 0..8u32);
                let dag = CompiledDag::compile(&p, &nrs);
                let report = diff_filter_vs_dag(&p, &dag, &nrs, &DiffConfig::default());
                prop_assert!(report.witnesses().next().is_none(),
                    "DAG diverges from its source: {report:?}");
                for s in &report.syscalls {
                    prop_assert!(
                        matches!(s.relation,
                            Relation::Equivalent | Relation::Incomparable),
                        "ordered relation without witness at nr {}", s.nr);
                }
            }
        }
    }
}
