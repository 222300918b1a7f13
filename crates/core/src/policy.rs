//! Conditional enablement policy (paper §4.4, "System interface for
//! enabling PTEMagnet").
//!
//! In a public cloud the orchestrator declares each container's maximum
//! memory usage (`memory.limit_in_bytes`); the guest kernel can enable
//! PTEMagnet only for processes whose declared limit exceeds a threshold —
//! big-memory applications are the ones with TLB pressure. The paper also
//! finds PTEMagnet never slows anything down, so [`EnablePolicy::Always`] is
//! a safe default.

/// When to use reservation-based allocation for a process.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum EnablePolicy {
    /// Reserve for every process (the paper's evaluated configuration).
    #[default]
    Always,
    /// Never reserve (behaves exactly like the default kernel; useful as an
    /// in-place baseline switch).
    Never,
    /// Reserve only for processes whose declared memory limit is at least
    /// this many bytes (cgroup-driven enablement).
    MemoryLimitAbove(u64),
}

impl EnablePolicy {
    /// Decides whether reservations apply to a process with the given
    /// declared memory limit (if any was registered).
    pub fn enabled(&self, memory_limit: Option<u64>) -> bool {
        match self {
            EnablePolicy::Always => true,
            EnablePolicy::Never => false,
            EnablePolicy::MemoryLimitAbove(threshold) => {
                memory_limit.is_some_and(|l| l >= *threshold)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_and_never() {
        assert!(EnablePolicy::Always.enabled(None));
        assert!(EnablePolicy::Always.enabled(Some(1)));
        assert!(!EnablePolicy::Never.enabled(Some(u64::MAX)));
    }

    #[test]
    fn threshold_requires_declared_limit() {
        let p = EnablePolicy::MemoryLimitAbove(1 << 30);
        assert!(
            !p.enabled(None),
            "undeclared limits stay on the default path"
        );
        assert!(!p.enabled(Some(1 << 20)));
        assert!(p.enabled(Some(1 << 30)));
        assert!(p.enabled(Some(1 << 31)));
    }

    #[test]
    fn default_is_always() {
        assert_eq!(EnablePolicy::default(), EnablePolicy::Always);
    }
}
