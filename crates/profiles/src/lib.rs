//! Seccomp profile modeling for the Draco reproduction.
//!
//! A *profile* is the policy a container runtime installs for a process:
//! which system calls may run, and (for argument-checking profiles) which
//! exact argument values they may use (paper §II-C). This crate provides:
//!
//! * [`ProfileSpec`] — the declarative policy: per-syscall rules with
//!   optional argument-value whitelists, plus direct evaluation
//!   ([`ProfileSpec::evaluate`]) used as the oracle in tests;
//! * the published profile catalog — [`docker_default`] (358 syscalls,
//!   7 argument values on `clone`/`personality`), [`gvisor_default`]
//!   (74 syscalls, 130 argument checks), [`firecracker`] (37 syscalls,
//!   8 argument checks);
//! * [`ProfileGenerator`] — the paper's §X-B toolkit: record a trace,
//!   emit `syscall-noargs`, `syscall-complete`, and `syscall-complete-2x`
//!   profiles;
//! * [`compile`] — profile → cBPF filter, in the linear layout Seccomp
//!   filters traditionally use and the binary-tree layout of libseccomp's
//!   optimization (paper §XII);
//! * [`ProfileStats`] — the security statistics behind paper Fig. 15.
//!
//! # Example
//!
//! ```
//! use draco_profiles::{compile, docker_default, FilterLayout};
//! use draco_bpf::{Interpreter, SeccompData};
//!
//! let profile = docker_default();
//! assert_eq!(profile.allowed_syscall_count(), 358);
//! let filter = compile(&profile, FilterLayout::Linear)?;
//! let out = Interpreter::new(&filter)
//!     .run(&SeccompData::for_syscall(0 /* read */, &[0; 6]))?;
//! assert!(out.action.permits());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod analysis;
mod catalog;
mod compile;
mod diff;
mod docker_json;
mod generate;
mod serde_io;
mod spec;
mod stats;

pub use analysis::{
    analyze_profile, analyze_stack, FilterLint, MaskAgreement, ProfileAnalysis, SyscallReport,
};
pub use catalog::{
    docker_default, firecracker, gvisor_default, DOCKER_CLONE_FLAGS,
    DOCKER_PERSONALITY_VALUES, RUNTIME_REQUIRED,
};
pub use compile::{
    compile, compile_dag, compile_dag_checked, compile_stacked, CompiledStack, DagStack,
    FilterLayout, FilterStack, SelfCheckError, StackOutcome,
};
pub use diff::{diff_profiles, diff_profiles_with, refinement_gate, ProfileDiff};
pub use docker_json::{from_docker_json, import_docker_json, DockerImport, DockerImportError};
pub use generate::{ProfileGenerator, ProfileKind};
pub use serde_io::{profile_from_json, profile_to_json, ProfileIoError};
pub use spec::{ArgPolicy, ProfileSpec, RuleSource, SyscallRule};
pub use stats::ProfileStats;
