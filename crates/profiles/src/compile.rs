//! Compiling profiles to cBPF filters.
//!
//! Two layouts are provided:
//!
//! * [`FilterLayout::Linear`] — the traditional Seccomp shape: one
//!   compare-and-branch block per allowed system call, executed in
//!   sequence (paper Fig. 1: "a long list of if statements executed in
//!   sequence"). Cost grows linearly with the whitelist position.
//! * [`FilterLayout::BinaryTree`] — libseccomp's binary-tree optimization
//!   (paper §XII): a balanced binary search over the sorted syscall
//!   numbers using `jgt` pivots with unconditional-jump fan-out, then a
//!   per-syscall argument block at the leaves. Cost grows
//!   logarithmically in the whitelist size — but argument checking within
//!   a syscall remains linear, which is why the optimization "does not
//!   fundamentally address the overhead".
//!
//! Profiles with `repeat == 2` (`syscall-complete-2x`) emit the whole
//! checking body twice, the second pass gated on the first one allowing —
//! reproducing the paper's "run the profile twice in a row" methodology.

use draco_bpf::{semdiff, BpfError, Cond, Program, ProgramBuilder, SeccompAction, SeccompData};
use draco_syscalls::{ArgSet, SyscallId, MAX_ARGS};

use crate::spec::{ArgPolicy, ProfileSpec};

/// Filter code layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FilterLayout {
    /// Sequential per-syscall blocks (classic Seccomp).
    Linear,
    /// Balanced binary search over syscall numbers (libseccomp §XII).
    BinaryTree,
}

/// Compiles a profile to a single cBPF program.
///
/// The generated filter is validated before being returned and always
/// agrees with [`ProfileSpec::evaluate`] on `Allow` vs the default action
/// (property-tested in this module and in the repo-level equivalence
/// tests).
///
/// # Errors
///
/// Returns [`BpfError::TooLong`] if the profile needs more than the
/// kernel's `BPF_MAXINSNS` (large `syscall-complete` profiles do) — use
/// [`compile_stacked`] for those, which is what real deployments do by
/// attaching several filters. Other errors indicate a compiler bug, since
/// any profile expressible in [`ProfileSpec`] is compilable.
pub fn compile(profile: &ProfileSpec, layout: FilterLayout) -> Result<Program, BpfError> {
    compile_with_unmatched(profile, layout, profile.default_action())
}

/// Compiles with an explicit action for *unmatched* syscall IDs.
///
/// Argument mismatches on an owned (whitelisted) syscall always return
/// the profile's default action; the `unmatched` action is what a filter
/// in a stack returns for syscalls another filter owns (`Allow`, so the
/// owning filter's verdict prevails under kernel most-restrictive
/// combining).
fn compile_with_unmatched(
    profile: &ProfileSpec,
    layout: FilterLayout,
    unmatched: SeccompAction,
) -> Result<Program, BpfError> {
    let mut ctx = Codegen::new(profile);
    ctx.unmatched = unmatched;
    ctx.builder.load_arch();
    // The deny target sits far away; a conditional jump only reaches 255
    // instructions, so route the failure through a local return.
    ctx.builder
        .jeq_imm(draco_bpf::AUDIT_ARCH_X86_64, "arch-ok", "arch-bad");
    ctx.builder.label("arch-bad");
    ctx.builder.ret_action(profile.default_action());
    ctx.builder.label("arch-ok");

    let passes = profile.repeat();
    for pass in 0..passes {
        let allow_label = if pass + 1 == passes {
            "allow".to_owned()
        } else {
            format!("pass{}", pass + 1)
        };
        ctx.emit_pass(layout, pass, &allow_label);
        if pass + 1 < passes {
            ctx.builder.label(format!("pass{}", pass + 1));
        }
    }

    ctx.builder.label("allow");
    ctx.builder.ret_action(SeccompAction::Allow);
    ctx.builder.label("deny-action");
    ctx.builder.ret_action(profile.default_action());
    ctx.builder.label("default-action");
    ctx.builder.ret_action(ctx.unmatched);
    // Deliberately *not* run through `draco_bpf::optimize` here: the
    // unoptimized chains match the cost structure of real kernel filters
    // (the paper's baseline). `FilterStack::optimize` applies the pass
    // explicitly — `repro ablate-opt` measures what it buys.
    ctx.builder.build()
}

/// Bookkeeping for the shared allow islands of the linear layout.
#[derive(Default)]
struct IslandState {
    label: Option<String>,
    /// Emission positions of the `jeq`s waiting for this island.
    jeq_positions: Vec<usize>,
}

struct Codegen<'p> {
    profile: &'p ProfileSpec,
    builder: ProgramBuilder,
    fresh: u32,
    unmatched: SeccompAction,
}

impl<'p> Codegen<'p> {
    fn new(profile: &'p ProfileSpec) -> Self {
        Codegen {
            profile,
            builder: ProgramBuilder::new(),
            fresh: 0,
            unmatched: profile.default_action(),
        }
    }

    fn fresh_label(&mut self, stem: &str) -> String {
        self.fresh += 1;
        format!("{stem}-{}", self.fresh)
    }

    /// Emits one full checking pass ending at `allow_label` on success and
    /// `default-action` on failure.
    fn emit_pass(&mut self, layout: FilterLayout, pass: u8, allow_label: &str) {
        self.builder.load_nr();
        // Linear chains execute rules in the profile's first-allow order
        // (like libseccomp); the binary tree needs the IDs sorted.
        let mut ids: Vec<SyscallId> = self.profile.rules().map(|(id, _)| id).collect();
        match layout {
            FilterLayout::Linear => {
                // Like libseccomp, an ID-only rule costs a single `jeq`
                // on the non-matching path: its true-branch targets a
                // shared allow *island* placed within conditional-jump
                // reach (at most every ~240 instructions), which `Ja`s to
                // the real allow label with unlimited reach.
                let mut island = IslandState::default();
                for id in &ids {
                    let rule = self.profile.rule(*id).expect("id from rules()");
                    let est = rule_insn_estimate(rule);
                    self.maybe_flush_island(&mut island, est, allow_label);
                    if matches!(rule.args, ArgPolicy::AnyArgs) {
                        let label = self.island_label(&mut island);
                        let next = self.fresh_label("next");
                        island.jeq_positions.push(self.builder.len());
                        self.builder
                            .jeq_imm(u32::from(id.as_u16()), label, next.clone());
                        self.builder.label(next);
                    } else {
                        self.emit_syscall_block(*id, pass, allow_label);
                    }
                }
                self.builder.goto("default-action");
                // A trailing island lands after the final goto, so the
                // fallthrough path never executes it.
                self.flush_island_here(&mut island, allow_label);
            }
            FilterLayout::BinaryTree => {
                ids.sort_unstable();
                self.emit_tree(&ids, pass, allow_label);
            }
        }
    }

    /// Names the pending allow island, creating it if needed.
    fn island_label(&mut self, island: &mut IslandState) -> String {
        if island.label.is_none() {
            island.label = Some(self.fresh_label("allow-island"));
        }
        island.label.clone().expect("just set")
    }

    /// Flushes the pending island if the upcoming `est`-instruction block
    /// would push the earliest waiting `jeq` beyond conditional-jump
    /// reach.
    fn maybe_flush_island(&mut self, island: &mut IslandState, est: usize, allow_label: &str) {
        let Some(&earliest) = island.jeq_positions.first() else {
            return;
        };
        // The island's `Ja allow` would sit at len()+1 after a flush.
        if self.builder.len() + est + 2 > earliest + 250 {
            let skip = self.fresh_label("island-skip");
            self.builder.goto(skip.clone());
            self.emit_island(island, allow_label);
            self.builder.label(skip);
        }
    }

    /// Places the pending island at the current position (call only where
    /// fallthrough cannot reach, e.g. right after an unconditional jump).
    fn flush_island_here(&mut self, island: &mut IslandState, allow_label: &str) {
        if !island.jeq_positions.is_empty() {
            self.emit_island(island, allow_label);
        }
    }

    fn emit_island(&mut self, island: &mut IslandState, allow_label: &str) {
        let label = island.label.take().expect("island has waiting jeqs");
        self.builder.label(label);
        self.builder.goto(allow_label.to_owned());
        island.jeq_positions.clear();
    }

    /// Emits the binary-search dispatch over `ids`, then the leaf blocks.
    fn emit_tree(&mut self, ids: &[SyscallId], pass: u8, allow_label: &str) {
        const LEAF_SIZE: usize = 4;
        if ids.len() <= LEAF_SIZE {
            for id in ids {
                self.emit_syscall_block(*id, pass, allow_label);
            }
            self.builder.goto("default-action");
            return;
        }
        let mid = ids.len() / 2;
        // Left subtree holds ids[..mid] (all ≤ pivot), right the rest.
        // The right subtree can lie further than a conditional jump
        // reaches (255 insns), so hop through an unconditional `Ja`
        // island, which has unlimited reach.
        let pivot = ids[mid - 1];
        let right = self.fresh_label("right");
        let left = self.fresh_label("left");
        let island = self.fresh_label("island");
        self.builder
            .jgt_imm(u32::from(pivot.as_u16()), island.clone(), left.clone());
        self.builder.label(island);
        self.builder.goto(right.clone());
        self.builder.label(left);
        self.emit_tree(&ids[..mid], pass, allow_label);
        self.builder.label(right);
        self.emit_tree(&ids[mid..], pass, allow_label);
    }

    /// Emits one per-syscall block. Entry invariant: `A == nr`. On exit
    /// (no match), `A == nr` still holds.
    fn emit_syscall_block(&mut self, id: SyscallId, pass: u8, allow_label: &str) {
        let rule = self.profile.rule(id).expect("id from rules()");
        let next = self.fresh_label("next");
        let body = self.fresh_label("body");
        let skip = self.fresh_label("skip");
        // Argument blocks can exceed the 255-instruction conditional-jump
        // reach (60-value ioctl whitelists, generated profiles), so the
        // non-matching path hops through a `Ja` island.
        self.builder
            .jeq_imm(u32::from(id.as_u16()), body.clone(), skip.clone());
        self.builder.label(skip);
        self.builder.goto(next.clone());
        self.builder.label(body);
        match &rule.args {
            ArgPolicy::AnyArgs => {
                self.builder.goto(allow_label);
            }
            ArgPolicy::Whitelist { mask, sets } => {
                for set in sets {
                    let next_set = self.fresh_label("set");
                    self.emit_set_check(*mask, set, &next_set, allow_label);
                    self.builder.label(next_set);
                }
                // ID matched but no argument set did: the call is denied
                // regardless of what other filters in a stack think.
                // (A was clobbered by argument loads, but we return
                // immediately, so the `A == nr` exit invariant is moot on
                // this path.)
                self.builder.goto("deny-action");
            }
        }
        self.builder.label(next);
        // Reload nr for the following block if argument loads clobbered A.
        if matches!(rule.args, ArgPolicy::Whitelist { .. }) {
            // `next` is only reached via the jeq (A untouched), so no
            // reload is needed: argument loads happen strictly after the
            // jeq matched, and those paths never reach `next`.
        }
        let _ = pass;
    }

    /// Emits the comparisons for one allowed argument set: every selected
    /// 32-bit word must match; any mismatch jumps to `next_set`.
    fn emit_set_check(
        &mut self,
        mask: draco_syscalls::ArgBitmask,
        set: &ArgSet,
        next_set: &str,
        allow_label: &str,
    ) {
        for pos in 0..MAX_ARGS {
            let byte_bits = ((mask.raw() >> (pos * 8)) & 0xff) as u32;
            if byte_bits == 0 {
                continue;
            }
            let lo_mask = word_mask(byte_bits & 0x0f);
            let hi_mask = word_mask((byte_bits >> 4) & 0x0f);
            let expected = set.get(pos);
            if lo_mask != 0 {
                self.emit_word_check(
                    SeccompData::off_arg_lo(pos),
                    lo_mask,
                    (expected & 0xffff_ffff) as u32,
                    next_set,
                );
            }
            if hi_mask != 0 {
                self.emit_word_check(
                    SeccompData::off_arg_hi(pos),
                    hi_mask,
                    (expected >> 32) as u32,
                    next_set,
                );
            }
        }
        // All selected words matched.
        self.builder.goto(allow_label);
    }

    /// Emits: load word, mask if partial, compare; mismatch → `next_set`.
    fn emit_word_check(&mut self, offset: u32, word_mask: u32, expected: u32, next_set: &str) {
        self.builder.insn(draco_bpf::Insn::LdAbs(offset));
        if word_mask != u32::MAX {
            self.builder.insn(draco_bpf::Insn::Alu(
                draco_bpf::AluOp::And,
                draco_bpf::Src::K(word_mask),
            ));
        }
        let cont = self.fresh_label("cmp");
        self.builder
            .jump_if(Cond::Jeq, expected & word_mask, cont.clone(), next_set.to_owned());
        self.builder.label(cont);
    }
}

/// The combined result of running a filter stack on one system call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StackOutcome {
    /// The kernel-combined (most restrictive) action.
    pub action: SeccompAction,
    /// Total cBPF instructions executed across every filter in the stack
    /// — the kernel runs *all* attached filters at every syscall.
    pub insns_executed: u64,
}

/// A stack of seccomp filters jointly enforcing one profile.
///
/// The kernel caps a single filter at `BPF_MAXINSNS` (4096) instructions;
/// real deployments with large argument whitelists attach several filters
/// and rely on the kernel's most-restrictive action combining. Each
/// filter in this stack *owns* a subset of the profile's syscalls —
/// denying bad arguments for owned syscalls, returning `Allow` for
/// everything else so the owning filter's verdict prevails.
#[derive(Debug)]
pub struct FilterStack {
    programs: Vec<Program>,
    default_action: SeccompAction,
}

impl FilterStack {
    /// The individual programs.
    pub fn programs(&self) -> &[Program] {
        &self.programs
    }

    /// Number of filters in the stack.
    pub fn len(&self) -> usize {
        self.programs.len()
    }

    /// True if the stack is empty (deny-everything degenerate case).
    pub fn is_empty(&self) -> bool {
        self.programs.is_empty()
    }

    /// Total instructions across the stack.
    pub fn total_insns(&self) -> usize {
        self.programs.iter().map(Program::len).sum()
    }

    /// Runs every filter (interpreted) and combines the verdicts.
    ///
    /// # Errors
    ///
    /// Propagates interpreter faults (impossible for generated filters).
    pub fn run(&self, data: &draco_bpf::SeccompData) -> Result<StackOutcome, BpfError> {
        let mut action = SeccompAction::Allow;
        let mut insns = 0;
        for program in &self.programs {
            let out = draco_bpf::Interpreter::new(program).run(data)?;
            insns += out.insns_executed;
            action = action.most_restrictive(out.action);
        }
        if self.programs.is_empty() {
            action = self.default_action;
        }
        Ok(StackOutcome {
            action,
            insns_executed: insns,
        })
    }

    /// Returns a stack with every filter run through the
    /// [`draco_bpf::optimize`] peephole pass (jump threading + dead-code
    /// elimination). Semantics are unchanged; executed instruction counts
    /// shrink — a software optimization a kernel could deploy without any
    /// of Draco's caching.
    ///
    /// # Panics
    ///
    /// Panics if re-validation of an optimized filter fails, which would
    /// be an optimizer bug.
    #[must_use]
    pub fn optimize(&self) -> FilterStack {
        FilterStack {
            programs: self
                .programs
                .iter()
                .map(|p| draco_bpf::optimize(p).expect("optimizer preserves validity"))
                .collect(),
            default_action: self.default_action,
        }
    }

    /// Pre-decodes every filter (the kernel-JIT model).
    pub fn compiled(&self) -> CompiledStack {
        CompiledStack {
            filters: self
                .programs
                .iter()
                .map(draco_bpf::CompiledFilter::compile)
                .collect(),
            default_action: self.default_action,
        }
    }
}

/// The pre-decoded (JIT-model) form of a [`FilterStack`].
#[derive(Debug)]
pub struct CompiledStack {
    filters: Vec<draco_bpf::CompiledFilter>,
    default_action: SeccompAction,
}

impl CompiledStack {
    /// Runs every filter and combines the verdicts.
    ///
    /// # Errors
    ///
    /// Propagates executor faults (impossible for generated filters).
    pub fn run(&self, data: &draco_bpf::SeccompData) -> Result<StackOutcome, BpfError> {
        let mut action = SeccompAction::Allow;
        let mut insns = 0;
        for filter in &self.filters {
            let out = filter.run(data)?;
            insns += out.insns_executed;
            action = action.most_restrictive(out.action);
        }
        if self.filters.is_empty() {
            action = self.default_action;
        }
        Ok(StackOutcome {
            action,
            insns_executed: insns,
        })
    }

    /// Number of filters.
    pub fn len(&self) -> usize {
        self.filters.len()
    }

    /// True if the stack has no filters.
    pub fn is_empty(&self) -> bool {
        self.filters.is_empty()
    }
}

impl FilterStack {
    /// Lowers every filter to a specialized decision DAG
    /// ([`draco_bpf::CompiledDag`]), with one dispatch-table entry per
    /// number in `nrs` — typically the profile's whitelisted syscalls,
    /// which is what [`compile_dag`] passes.
    #[must_use]
    pub fn dag(&self, nrs: &[u32]) -> DagStack {
        DagStack {
            dags: self
                .programs
                .iter()
                .map(|p| draco_bpf::CompiledDag::compile(p, nrs))
                .collect(),
            default_action: self.default_action,
        }
    }
}

/// The specialized decision-DAG form of a [`FilterStack`]: the miss
/// path's fast filter engine. Combines per-filter verdicts exactly like
/// [`FilterStack::run`] / [`CompiledStack::run`]; `insns_executed`
/// counts DAG nodes walked (plus VM instructions on fallback), a
/// smaller unit than interpreted instructions.
#[derive(Debug)]
pub struct DagStack {
    dags: Vec<draco_bpf::CompiledDag>,
    default_action: SeccompAction,
}

impl DagStack {
    /// Runs every DAG and combines the verdicts.
    ///
    /// # Errors
    ///
    /// Propagates executor faults (impossible for generated filters).
    pub fn run(&self, data: &draco_bpf::SeccompData) -> Result<StackOutcome, BpfError> {
        let mut action = SeccompAction::Allow;
        let mut insns = 0;
        for dag in &self.dags {
            let out = dag.run(data)?;
            insns += out.insns_executed;
            action = action.most_restrictive(out.action);
        }
        if self.dags.is_empty() {
            action = self.default_action;
        }
        Ok(StackOutcome {
            action,
            insns_executed: insns,
        })
    }

    /// Number of DAGs.
    pub fn len(&self) -> usize {
        self.dags.len()
    }

    /// True if the stack has no DAGs.
    pub fn is_empty(&self) -> bool {
        self.dags.is_empty()
    }

    /// Aggregated shape summary across all filters in the stack.
    pub fn stats(&self) -> draco_bpf::DagStats {
        let mut total = draco_bpf::DagStats::default();
        for dag in &self.dags {
            let s = dag.stats();
            total.nodes += s.nodes;
            total.cmp += s.cmp;
            total.ret += s.ret;
            total.fallback += s.fallback;
            total.table_entries += s.table_entries;
            total.closed_entries += s.closed_entries;
        }
        total
    }

    /// Per-filter DAG listings with node provenance, for tooling.
    pub fn dump(&self) -> String {
        self.dags
            .iter()
            .enumerate()
            .map(|(i, dag)| format!("filter {i}:\n{}", dag.dump()))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Compiles a profile straight to its decision-DAG form: binary-tree
/// layout (whose nr dispatch the DAG's symbolic root reproduces for
/// out-of-table numbers) with one dispatch-table entry per whitelisted
/// syscall.
///
/// # Errors
///
/// Returns a [`BpfError`] only for compiler bugs; every expressible
/// profile is compilable.
pub fn compile_dag(profile: &ProfileSpec) -> Result<DagStack, BpfError> {
    let nrs: Vec<u32> = profile
        .rules()
        .map(|(id, _)| u32::from(id.as_u16()))
        .collect();
    Ok(compile_stacked(profile, FilterLayout::BinaryTree)?.dag(&nrs))
}

/// Instruction budget per chunk, conservatively below `BPF_MAXINSNS`.
const CHUNK_BUDGET: usize = 3600;

/// Rough upper bound on the instructions one rule compiles to.
fn rule_insn_estimate(rule: &crate::spec::SyscallRule) -> usize {
    match &rule.args {
        ArgPolicy::AnyArgs => 4,
        ArgPolicy::Whitelist { mask, sets } => {
            let words = 2 * mask.arg_count().max(1);
            4 + sets.len() * (3 * words + 2)
        }
    }
}

/// Compiles a profile into a [`FilterStack`], splitting across as many
/// filters as the kernel's per-filter instruction cap requires.
///
/// # Errors
///
/// Returns a [`BpfError`] only for compiler bugs; every expressible
/// profile is compilable.
pub fn compile_stacked(
    profile: &ProfileSpec,
    layout: FilterLayout,
) -> Result<FilterStack, BpfError> {
    let repeat = profile.repeat().max(1) as usize;
    let mut chunks: Vec<ProfileSpec> = Vec::new();
    let mut current = ProfileSpec::new(profile.name(), profile.default_action());
    let mut budget = 0usize;
    for (id, rule) in profile.rules() {
        let cost = rule_insn_estimate(rule) * repeat;
        if budget > 0 && budget + cost > CHUNK_BUDGET {
            chunks.push(std::mem::replace(
                &mut current,
                ProfileSpec::new(profile.name(), profile.default_action()),
            ));
            budget = 0;
        }
        current.allow(id, rule.clone());
        budget += cost;
    }
    if current.allowed_syscall_count() > 0 || chunks.is_empty() {
        chunks.push(current);
    }
    if chunks.len() == 1 {
        // Fits in one filter: identical to the single-program compile.
        let program = compile_with_unmatched(
            &chunks[0].clone().with_repeat(profile.repeat().max(1)),
            layout,
            profile.default_action(),
        )?;
        return Ok(FilterStack {
            programs: vec![program],
            default_action: profile.default_action(),
        });
    }
    // Multi-filter stack: every argument-checking chunk defers unmatched
    // IDs (`Allow`); a final *membership* filter owns the ID whitelist
    // and denies syscalls no chunk owns. Kernel most-restrictive
    // combining then yields exactly the profile's semantics.
    let mut programs = chunks
        .iter()
        .map(|chunk| {
            let chunk = chunk.clone().with_repeat(profile.repeat().max(1));
            compile_with_unmatched(&chunk, layout, SeccompAction::Allow)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut membership = ProfileSpec::new(
        format!("{}-membership", profile.name()),
        profile.default_action(),
    );
    for (id, rule) in profile.rules() {
        membership.allow(id, crate::spec::SyscallRule::any(rule.source));
    }
    programs.push(compile_with_unmatched(
        &membership,
        layout,
        profile.default_action(),
    )?);
    Ok(FilterStack {
        programs,
        default_action: profile.default_action(),
    })
}

/// Why a checked DAG compile failed.
#[derive(Debug)]
pub enum SelfCheckError {
    /// The underlying filter compile failed (compiler bug).
    Compile(BpfError),
    /// A compiled DAG could not be proven `Equivalent` to its source
    /// filter at some syscall.
    NotEquivalent {
        /// Index of the offending filter within the stack.
        filter: usize,
        /// The first non-equivalent per-syscall result.
        diff: semdiff::SyscallDiff,
    },
}

impl std::fmt::Display for SelfCheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SelfCheckError::Compile(e) => write!(f, "filter compile failed: {e}"),
            SelfCheckError::NotEquivalent { filter, diff } => {
                write!(
                    f,
                    "filter {filter}: DAG is {} (proof {:?}) vs its source at nr {}",
                    diff.relation, diff.proof, diff.nr
                )?;
                if let Some(w) = &diff.witness {
                    write!(
                        f,
                        "; witness args {:?} → source {}, dag {}",
                        w.data.args, w.old, w.new
                    )?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SelfCheckError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SelfCheckError::Compile(e) => Some(e),
            SelfCheckError::NotEquivalent { .. } => None,
        }
    }
}

impl From<BpfError> for SelfCheckError {
    fn from(e: BpfError) -> Self {
        SelfCheckError::Compile(e)
    }
}

impl DagStack {
    /// Compile-time self-check: semantically diffs every compiled DAG
    /// against its source filter (see [`draco_bpf::semdiff`]), probing
    /// each filter's own compare boundaries plus `extra_nrs` (typically
    /// the profile's whitelist and an out-of-table number). Returns one
    /// report per filter, in stack order.
    ///
    /// # Panics
    ///
    /// Panics if `sources` is not the stack this DAG was compiled from
    /// (length mismatch).
    pub fn selfcheck(
        &self,
        sources: &FilterStack,
        extra_nrs: &[u32],
        cfg: &semdiff::DiffConfig,
    ) -> Vec<semdiff::DiffReport> {
        assert_eq!(
            self.dags.len(),
            sources.programs.len(),
            "self-check needs the source stack the DAG was compiled from"
        );
        sources
            .programs
            .iter()
            .zip(self.dags.iter())
            .map(|(program, dag)| {
                let side = semdiff::SemSide::filter(program);
                let nrs = semdiff::interesting_nrs(&side, &side, extra_nrs.iter().copied());
                // `diff_filter_vs_dag` with the source side reused, so
                // its program is scanned once.
                semdiff::diff_sides(&side, &semdiff::SemSide::dag(program, dag), &nrs, cfg)
            })
            .collect()
    }
}

/// [`compile_dag`] with the self-check mode on: every compiled DAG is
/// semantically diffed against its source filter, and any syscall that
/// cannot be proven `Equivalent` fails the compile. This is the paranoid
/// path for policy loads that must not trust the specializing compiler.
///
/// # Errors
///
/// [`SelfCheckError::Compile`] for an underlying compile failure,
/// [`SelfCheckError::NotEquivalent`] naming the first filter and syscall
/// whose DAG could not be proven equivalent.
pub fn compile_dag_checked(profile: &ProfileSpec) -> Result<DagStack, SelfCheckError> {
    let nrs: Vec<u32> = profile
        .rules()
        .map(|(id, _)| u32::from(id.as_u16()))
        .collect();
    let stack = compile_stacked(profile, FilterLayout::BinaryTree)?;
    let dags = stack.dag(&nrs);
    let mut probe = nrs;
    // One probe guaranteed outside any dispatch table.
    probe.push(u32::from(u16::MAX));
    // The selfcheck runs at compile time, so afford a much larger
    // concrete budget than an interactive diff: multi-argument
    // whitelists (e.g. gvisor's socket tuples) produce candidate grids
    // well past the interactive default, and a truncated search cannot
    // prove equivalence.
    let cfg = semdiff::DiffConfig {
        max_inputs_per_nr: 1 << 18,
        ..semdiff::DiffConfig::default()
    };
    for (filter, report) in dags.selfcheck(&stack, &probe, &cfg).iter().enumerate() {
        if let Some(diff) = report
            .syscalls
            .iter()
            .find(|s| s.relation != semdiff::Relation::Equivalent)
        {
            return Err(SelfCheckError::NotEquivalent {
                filter,
                diff: *diff,
            });
        }
    }
    Ok(dags)
}

/// Expands 4 byte-select bits into a 32-bit byte mask.
fn word_mask(byte_bits: u32) -> u32 {
    let mut m = 0u32;
    for b in 0..4 {
        if byte_bits >> b & 1 == 1 {
            m |= 0xff << (b * 8);
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{docker_default, firecracker, gvisor_default};
    use crate::generate::{ProfileGenerator, ProfileKind};
    use crate::spec::{RuleSource, SyscallRule};
    use draco_bpf::{Interpreter, SeccompData};
    use draco_syscalls::SyscallRequest;

    fn agree(profile: &ProfileSpec, layout: FilterLayout, req: &SyscallRequest) {
        let prog = compile(profile, layout).expect("compiles");
        let out = Interpreter::new(&prog)
            .run(&SeccompData::from_request(req))
            .expect("runs");
        let oracle = profile.evaluate(req);
        assert_eq!(
            out.action, oracle,
            "{} {layout:?} disagrees on {req}",
            profile.name()
        );
    }

    fn req(nr: u16, args: &[u64]) -> SyscallRequest {
        SyscallRequest::new(
            0x1000,
            SyscallId::new(nr),
            draco_syscalls::ArgSet::from_slice(args),
        )
    }

    #[test]
    fn empty_profile_compiles_to_deny_all() {
        let p = ProfileSpec::new("empty", SeccompAction::KillProcess);
        for layout in [FilterLayout::Linear, FilterLayout::BinaryTree] {
            agree(&p, layout, &req(0, &[]));
            agree(&p, layout, &req(400, &[]));
        }
    }

    #[test]
    fn single_syscall_whitelist() {
        let mut p = ProfileSpec::new("one", SeccompAction::KillProcess);
        p.allow(SyscallId::new(39), SyscallRule::any(RuleSource::Runtime));
        for layout in [FilterLayout::Linear, FilterLayout::BinaryTree] {
            agree(&p, layout, &req(39, &[]));
            agree(&p, layout, &req(38, &[]));
            agree(&p, layout, &req(40, &[]));
        }
    }

    #[test]
    fn docker_default_compiles_and_agrees() {
        let p = docker_default();
        for layout in [FilterLayout::Linear, FilterLayout::BinaryTree] {
            // Allowed, ID-only.
            agree(&p, layout, &req(0, &[3, 0, 100]));
            // Denied (ptrace = 101).
            agree(&p, layout, &req(101, &[0, 0, 0]));
            // personality, allowed and denied values.
            agree(&p, layout, &req(135, &[0xffff_ffff]));
            agree(&p, layout, &req(135, &[0x1234]));
            // clone with good and bad flag words.
            agree(&p, layout, &req(56, &[0x003d_0f00, 1, 2, 3, 0]));
            agree(&p, layout, &req(56, &[0x1000_0000, 0, 0, 0, 0]));
            // Unknown nr.
            agree(&p, layout, &req(435, &[0, 0]));
            agree(&p, layout, &req(400, &[]));
        }
    }

    #[test]
    fn gvisor_and_firecracker_compile_and_agree() {
        for p in [gvisor_default(), firecracker()] {
            for layout in [FilterLayout::Linear, FilterLayout::BinaryTree] {
                agree(&p, layout, &req(0, &[1, 2, 3]));
                agree(&p, layout, &req(16, &[1, 0x5401, 0])); // ioctl TCGETS
                agree(&p, layout, &req(16, &[1, 0x9999, 0])); // bad ioctl
                agree(&p, layout, &req(72, &[1, 1, 0])); // fcntl F_GETFD
                agree(&p, layout, &req(72, &[1, 400, 0])); // bad fcntl cmd
                agree(&p, layout, &req(101, &[0, 0, 0])); // ptrace denied
            }
        }
    }

    #[test]
    fn tree_layout_executes_fewer_insns_for_high_nrs() {
        let p = docker_default();
        let linear = compile(&p, FilterLayout::Linear).unwrap();
        let tree = compile(&p, FilterLayout::BinaryTree).unwrap();
        // pidfd_open = 434, near the end of the whitelist.
        let data = SeccompData::for_syscall(434, &[0; 6]);
        let lin_out = Interpreter::new(&linear).run(&data).unwrap();
        let tree_out = Interpreter::new(&tree).run(&data).unwrap();
        assert_eq!(lin_out.action, tree_out.action);
        assert!(
            tree_out.insns_executed * 4 < lin_out.insns_executed,
            "tree {} vs linear {}",
            tree_out.insns_executed,
            lin_out.insns_executed
        );
    }

    #[test]
    fn linear_cost_grows_with_whitelist_position() {
        let p = docker_default();
        let prog = compile(&p, FilterLayout::Linear).unwrap();
        let early = Interpreter::new(&prog)
            .run(&SeccompData::for_syscall(0, &[0; 6]))
            .unwrap();
        let late = Interpreter::new(&prog)
            .run(&SeccompData::for_syscall(434, &[0; 6]))
            .unwrap();
        assert!(late.insns_executed > early.insns_executed * 10);
    }

    #[test]
    fn complete_2x_executes_roughly_twice_the_insns() {
        let mut gen = ProfileGenerator::new("app");
        for nr in [0u16, 1, 3, 9, 202] {
            gen.observe(&req(nr, &[1, 2, 3, 4, 5, 6]));
        }
        let p1 = gen.emit(ProfileKind::SyscallComplete);
        let p2 = gen.emit(ProfileKind::SyscallComplete2x);
        let prog1 = compile(&p1, FilterLayout::Linear).unwrap();
        let prog2 = compile(&p2, FilterLayout::Linear).unwrap();
        let data = SeccompData::for_syscall(202, &[1, 2, 3, 4, 5, 6]);
        let c1 = Interpreter::new(&prog1).run(&data).unwrap();
        let c2 = Interpreter::new(&prog2).run(&data).unwrap();
        assert_eq!(c1.action, c2.action);
        let ratio = c2.insns_executed as f64 / c1.insns_executed as f64;
        assert!((1.6..=2.4).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn partial_width_values_are_masked() {
        // mkdir(path, mode): mode is a 2-byte value; garbage in the upper
        // bytes of the register must not defeat the check.
        let mut gen = ProfileGenerator::new("app");
        gen.observe(&req(83, &[0xdead_0000, 0o755]));
        let p = gen.emit(ProfileKind::SyscallComplete);
        for layout in [FilterLayout::Linear, FilterLayout::BinaryTree] {
            agree(&p, layout, &req(83, &[0xbeef_0000, 0o755]));
            agree(&p, layout, &req(83, &[0, 0xdead_0000 | 0o755]));
            agree(&p, layout, &req(83, &[0, 0o700]));
        }
    }

    #[test]
    fn wrong_arch_hits_default_action() {
        let mut p = ProfileSpec::new("t", SeccompAction::KillProcess);
        p.allow(SyscallId::new(0), SyscallRule::any(RuleSource::Runtime));
        let prog = compile(&p, FilterLayout::Linear).unwrap();
        let mut data = SeccompData::for_syscall(0, &[0; 6]);
        data.arch = 0xdead;
        let out = Interpreter::new(&prog).run(&data).unwrap();
        assert_eq!(out.action, SeccompAction::KillProcess);
    }
}

#[cfg(test)]
mod stack_tests {
    use super::*;
    use crate::generate::{ProfileGenerator, ProfileKind};
    use crate::spec::{RuleSource, SyscallRule};
    use draco_bpf::{SeccompData, BPF_MAXINSNS};
    use draco_syscalls::{ArgSet, SyscallRequest};

    /// A profile big enough to need several filters: 40 syscalls with
    /// 40 argument sets each.
    fn huge_profile() -> ProfileSpec {
        let mut gen = ProfileGenerator::new("huge");
        for nr in 0u16..40 {
            for set in 0u64..40 {
                gen.observe(&SyscallRequest::new(
                    0,
                    SyscallId::new(nr),
                    ArgSet::from_slice(&[set, set + 1, set + 2, set + 3, set + 4, set + 5]),
                ));
            }
        }
        gen.emit(ProfileKind::SyscallComplete)
    }

    #[test]
    fn huge_profile_needs_multiple_filters_each_within_the_cap() {
        let profile = huge_profile();
        assert!(
            compile(&profile, FilterLayout::Linear).is_err(),
            "single-filter compile exceeds BPF_MAXINSNS"
        );
        let stack = compile_stacked(&profile, FilterLayout::Linear).unwrap();
        assert!(stack.len() >= 3, "chunks + membership, got {}", stack.len());
        for program in stack.programs() {
            assert!(program.len() <= BPF_MAXINSNS);
        }
        assert!(!stack.is_empty());
        assert!(stack.total_insns() > BPF_MAXINSNS);
    }

    #[test]
    fn stacked_semantics_match_oracle_on_all_classes() {
        let profile = huge_profile();
        let stack = compile_stacked(&profile, FilterLayout::Linear).unwrap();
        let compiled = stack.compiled();
        assert_eq!(compiled.len(), stack.len());
        let cases = [
            // Allowed: every chunk's own syscalls with good args.
            SyscallRequest::new(0, SyscallId::new(0), ArgSet::from_slice(&[0, 1, 2, 3, 4, 5])),
            SyscallRequest::new(0, SyscallId::new(39), ArgSet::from_slice(&[7, 8, 9, 10, 11, 12])),
            // Denied: owned syscall, bad argument set.
            SyscallRequest::new(0, SyscallId::new(0), ArgSet::from_slice(&[99, 1, 2, 3, 4, 5])),
            // Denied: syscall no chunk owns (membership filter).
            SyscallRequest::new(0, SyscallId::new(200), ArgSet::empty()),
            SyscallRequest::new(0, SyscallId::new(435), ArgSet::empty()),
        ];
        for req in &cases {
            let want = profile.evaluate(req);
            let data = SeccompData::from_request(req);
            assert_eq!(stack.run(&data).unwrap().action, want, "{req}");
            assert_eq!(compiled.run(&data).unwrap().action, want, "{req}");
        }
    }

    #[test]
    fn stack_charges_every_filter_on_every_call() {
        // The kernel runs all attached filters at each syscall; the
        // instruction count reflects that.
        let profile = huge_profile();
        let stack = compile_stacked(&profile, FilterLayout::Linear).unwrap();
        let data = SeccompData::for_syscall(0, &[0, 1, 2, 3, 4, 5]);
        let out = stack.run(&data).unwrap();
        // At minimum: one insn per filter beyond the matching one.
        assert!(out.insns_executed as usize >= stack.len());
    }

    #[test]
    fn empty_profile_stacks_to_single_deny_filter() {
        let profile = ProfileSpec::new("empty", SeccompAction::KillProcess);
        let stack = compile_stacked(&profile, FilterLayout::Linear).unwrap();
        assert_eq!(stack.len(), 1);
        let out = stack
            .run(&SeccompData::for_syscall(0, &[0; 6]))
            .unwrap();
        assert_eq!(out.action, SeccompAction::KillProcess);
    }

    #[test]
    fn stacked_tree_layout_agrees_too() {
        let profile = huge_profile();
        let stack = compile_stacked(&profile, FilterLayout::BinaryTree).unwrap();
        for nr in [0u16, 20, 39, 100] {
            let args = ArgSet::from_slice(&[5, 6, 7, 8, 9, 10]);
            let req = SyscallRequest::new(0, SyscallId::new(nr), args);
            assert_eq!(
                stack.run(&SeccompData::from_request(&req)).unwrap().action,
                profile.evaluate(&req),
                "nr {nr}"
            );
        }
    }

    #[test]
    fn twox_huge_profile_also_stacks() {
        let mut gen = ProfileGenerator::new("huge2x");
        for nr in 0u16..30 {
            for set in 0u64..40 {
                gen.observe(&SyscallRequest::new(
                    0,
                    SyscallId::new(nr),
                    ArgSet::from_slice(&[set, set, set, set, set, set]),
                ));
            }
        }
        let profile = gen.emit(ProfileKind::SyscallComplete2x);
        let stack = compile_stacked(&profile, FilterLayout::Linear).unwrap();
        for program in stack.programs() {
            assert!(program.len() <= BPF_MAXINSNS);
        }
        let ok = SyscallRequest::new(0, SyscallId::new(3), ArgSet::from_slice(&[8; 6]));
        assert_eq!(
            stack.run(&SeccompData::from_request(&ok)).unwrap().action,
            profile.evaluate(&ok)
        );
    }

    #[test]
    fn membership_filter_uses_id_only_rules() {
        let profile = huge_profile();
        let stack = compile_stacked(&profile, FilterLayout::Linear).unwrap();
        // The final filter is the membership filter: it must be small
        // (ID-only) relative to the chunks.
        let membership = stack.programs().last().unwrap();
        let chunk_max = stack.programs()[..stack.len() - 1]
            .iter()
            .map(draco_bpf::Program::len)
            .max()
            .unwrap();
        assert!(membership.len() < chunk_max / 4);
        let _ = SyscallRule::any(RuleSource::Runtime); // keep import used
    }

    #[test]
    fn catalog_dags_pass_the_selfcheck() {
        for profile in [
            crate::catalog::docker_default(),
            crate::catalog::gvisor_default(),
            crate::catalog::firecracker(),
        ] {
            let stack = compile_dag_checked(&profile)
                .unwrap_or_else(|e| panic!("{}: {e}", profile.name()));
            // The checked compile returns exactly what compile_dag does.
            assert_eq!(stack.len(), compile_dag(&profile).unwrap().len());
        }
    }

    #[test]
    fn selfcheck_reports_are_proven_and_exercised() {
        let profile = crate::catalog::firecracker();
        let sources = compile_stacked(&profile, FilterLayout::BinaryTree).unwrap();
        let dags = compile_dag(&profile).unwrap();
        let reports = dags.selfcheck(&sources, &[u32::from(u16::MAX)], &semdiff::DiffConfig::default());
        assert_eq!(reports.len(), sources.len());
        for report in &reports {
            assert_eq!(report.relation, semdiff::Relation::Equivalent);
            // DAG sides are never trusted abstractly: the compiled
            // artifact was concretely executed at least once per nr.
            assert!(report.inputs_executed >= report.syscalls.len() as u64);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::generate::{ProfileGenerator, ProfileKind};
    use draco_bpf::{Interpreter, SeccompData};
    use draco_syscalls::SyscallRequest;
    use proptest::prelude::*;

    proptest! {
        /// Compiled filters agree with direct evaluation on arbitrary
        /// generated profiles and arbitrary requests, in both layouts.
        #[test]
        fn compiled_agrees_with_oracle(
            observed in proptest::collection::vec((0u16..436, proptest::array::uniform6(0u64..16)), 1..24),
            queries in proptest::collection::vec((0u16..436, proptest::array::uniform6(0u64..16)), 1..24),
            kind_complete in any::<bool>(),
        ) {
            let mut gen = ProfileGenerator::new("prop");
            for (nr, args) in &observed {
                gen.observe(&SyscallRequest::new(
                    0,
                    draco_syscalls::SyscallId::new(*nr),
                    draco_syscalls::ArgSet::new(*args),
                ));
            }
            let kind = if kind_complete {
                ProfileKind::SyscallComplete
            } else {
                ProfileKind::SyscallNoargs
            };
            let profile = gen.emit(kind);
            for layout in [FilterLayout::Linear, FilterLayout::BinaryTree] {
                let prog = compile(&profile, layout).expect("compiles");
                let interp = Interpreter::new(&prog);
                for (nr, args) in &queries {
                    let req = SyscallRequest::new(
                        0,
                        draco_syscalls::SyscallId::new(*nr),
                        draco_syscalls::ArgSet::new(*args),
                    );
                    let out = interp.run(&SeccompData::from_request(&req)).expect("runs");
                    prop_assert_eq!(out.action, profile.evaluate(&req));
                }
            }
        }
    }
}
