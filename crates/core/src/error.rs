//! Errors surfaced by software Draco.

use core::fmt;

/// Errors constructing or operating a Draco checker.
#[derive(Debug)]
#[non_exhaustive]
pub enum DracoError {
    /// The profile could not be compiled to a fallback filter.
    FilterCompile(draco_bpf::BpfError),
    /// The fallback filter faulted at run time.
    FilterRuntime(draco_bpf::BpfError),
    /// A hot reload was refused by
    /// [`ReloadPolicy::RequireRefinement`](crate::ReloadPolicy): the
    /// candidate profile would relax — or could not be proven not to
    /// relax — the installed policy.
    ReloadRejected {
        /// The first offending syscall's relation (never
        /// `Equivalent`/`Refines` here). The gate stops at that syscall,
        /// so this is not the join over all of them: it can read
        /// `relaxes` where `dracoctl diff` reports `incomparable`
        /// overall.
        relation: draco_bpf::semdiff::Relation,
        /// The first offending per-syscall diff, carrying a
        /// VM-verified divergence witness when the search found one.
        diff: Option<draco_bpf::semdiff::SyscallDiff>,
    },
}

impl fmt::Display for DracoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DracoError::FilterCompile(e) => write!(f, "fallback filter compilation failed: {e}"),
            DracoError::FilterRuntime(e) => write!(f, "fallback filter execution failed: {e}"),
            DracoError::ReloadRejected { relation, diff } => {
                write!(
                    f,
                    "hot reload refused: candidate policy is not a refinement of the installed one (relation: {relation}"
                )?;
                if let Some(d) = diff {
                    write!(f, " at syscall {}", d.nr)?;
                }
                write!(f, ")")
            }
        }
    }
}

impl std::error::Error for DracoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DracoError::FilterCompile(e) | DracoError::FilterRuntime(e) => Some(e),
            DracoError::ReloadRejected { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let err = DracoError::FilterCompile(draco_bpf::BpfError::Empty);
        assert!(err.to_string().contains("compilation failed"));
        assert!(std::error::Error::source(&err).is_some());
        let err = DracoError::FilterRuntime(draco_bpf::BpfError::RuntimeDivisionByZero);
        assert!(err.to_string().contains("execution failed"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_traits<T: Send + Sync>() {}
        assert_traits::<DracoError>();
    }
}
