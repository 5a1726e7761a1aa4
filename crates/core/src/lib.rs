//! Software Draco: cached system-call checking (the paper's §V–§VII).
//!
//! Draco's insight is that system call streams have locality: the same
//! `(ID, argument set)` pairs recur within tens of calls (paper Fig. 3).
//! Instead of executing the Seccomp filter at every syscall, Draco caches
//! validated pairs and re-admits them with a table lookup:
//!
//! * [`Spt`] — the **System Call Permissions Table**: one entry per
//!   syscall ID holding a Valid bit, the VAT base, and the 48-bit
//!   Argument Bitmask (paper Fig. 5);
//! * [`Vat`] — the **Validated Argument Table**: per-syscall bounded
//!   2-ary cuckoo hash tables of validated argument sets, hashed with the
//!   ECMA / ¬ECMA CRC pair (paper §VII-A);
//! * [`DracoChecker`] — the check workflow of paper Fig. 4: table hit →
//!   allow; miss → run the Seccomp filter; on success update the tables;
//! * [`DracoProcess`] — per-process state with fork semantics and the
//!   profile-immutability guarantee the soundness argument rests on.
//!
//! The correctness argument is the paper's: Seccomp profiles are
//! *stateless*, so a `(ID, argument set)` pair that validated once will
//! validate forever — caching cannot change any decision, only its cost.
//! The repo-level `equivalence` tests verify this against the
//! [`ProfileSpec::evaluate`](draco_profiles::ProfileSpec::evaluate) oracle
//! on arbitrary call streams.
//!
//! # Example
//!
//! ```
//! use draco_core::{CheckPath, DracoChecker};
//! use draco_profiles::docker_default;
//! use draco_syscalls::{ArgSet, SyscallId, SyscallRequest};
//!
//! let mut checker = DracoChecker::from_profile(&docker_default())?;
//! let read = SyscallRequest::new(0x1000, SyscallId::new(0), ArgSet::from_slice(&[3, 0, 64]));
//! // First encounter runs the filter and fills the tables…
//! let first = checker.check(&read);
//! assert!(first.action.permits());
//! assert!(matches!(first.path, CheckPath::FilterRun { .. }));
//! // …subsequent encounters hit the cache and skip the filter entirely.
//! let second = checker.check(&read);
//! assert!(second.action.permits());
//! assert!(second.path.is_cache_hit());
//! # Ok::<(), draco_core::DracoError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod checker;
mod error;
mod os;
mod policy;
mod process;
mod sentry;
mod shared;
mod spt;
mod stats;
mod vat;

pub use checker::{BatchScratch, CheckPath, CheckResult, Decision, DracoChecker};
pub use error::DracoError;
pub use os::{DracoOs, OsError};
pub use policy::{deny_audit_event, EngineKind};
pub use process::{DracoProcess, ProcessId};
pub use sentry::{SentryOutcome, SentryPipeline};
pub use shared::{ReloadDecision, ReloadPolicy, SharedDracoProcess, SharedThreadHandle};
pub use spt::{Spt, SptEntry};
pub use stats::{BatchStats, CheckerStats};
pub use vat::{Vat, VatKey, VatLookup};
