//! The typed failure taxonomy of the supervised experiment runtime.
//!
//! A [`RunError`] is what one experiment *cell* (a single
//! workload × policy × seed run) reports when it cannot produce a result.
//! The supervisor in `vmsim-sim` quarantines the failing cell — recording
//! the error as data while every other cell completes — instead of letting
//! a panic abort the whole matrix, so the taxonomy must be serializable,
//! comparable, and cheap to clone.

use crate::error::MemError;

/// Why one experiment cell failed. Produced by the supervised runtime in
/// `vmsim-sim`; serialized into results artifacts and run journals.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum RunError {
    /// The simulated machine (or workload code driving it) panicked; the
    /// panic payload is carried as data instead of unwinding the harness.
    MachinePanic {
        /// The panic payload, stringified (`"non-string panic payload"`
        /// when the payload was not a string).
        payload: String,
    },
    /// The simulation returned a resource-exhaustion error on a run with no
    /// fault plan installed — a misconfigured machine, not injected chaos.
    Sim {
        /// The underlying memory-management error.
        error: MemError,
    },
    /// A fault plan drove the machine out of memory beyond what the
    /// graceful-degradation paths (emergency reclaim, OOM retry) could
    /// absorb.
    FaultPlanExhausted {
        /// Buddy order of the allocation that finally could not be served.
        order: u32,
    },
    /// A per-cell budget ran out before the cell produced any measurable
    /// result (e.g. the soft wall-clock budget expired during the
    /// allocation/init phase, where no partial measurement exists yet).
    BudgetExceeded {
        /// Which budget: `"ops"` or `"wall"`.
        budget: &'static str,
        /// The configured limit (ops, or milliseconds for `"wall"`).
        limit: u64,
    },
    /// A results/journal artifact could not be written or re-read.
    ArtifactIo {
        /// The offending path.
        path: String,
        /// The I/O error message.
        message: String,
    },
}

impl RunError {
    /// Stable machine-readable kind tag, used in results JSON and journal
    /// entries (`"error_kind"` fields).
    pub fn kind(&self) -> &'static str {
        match self {
            RunError::MachinePanic { .. } => "machine_panic",
            RunError::Sim { .. } => "sim",
            RunError::FaultPlanExhausted { .. } => "fault_plan_exhausted",
            RunError::BudgetExceeded { .. } => "budget_exceeded",
            RunError::ArtifactIo { .. } => "artifact_io",
        }
    }

    /// Builds a [`RunError::MachinePanic`] from a `catch_unwind` payload,
    /// stringifying `&str`/`String` payloads and falling back to a fixed
    /// marker for exotic `panic_any` values.
    pub fn from_panic(payload: &(dyn std::any::Any + Send)) -> Self {
        let text = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        RunError::MachinePanic { payload: text }
    }
}

impl core::fmt::Display for RunError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RunError::MachinePanic { payload } => write!(f, "machine panicked: {payload}"),
            RunError::Sim { error } => write!(f, "simulation error: {error}"),
            RunError::FaultPlanExhausted { order } => write!(
                f,
                "fault plan exhausted physical memory (order-{order} allocation unrecoverable)"
            ),
            RunError::BudgetExceeded { budget, limit } => {
                write!(f, "cell {budget} budget exceeded (limit {limit})")
            }
            RunError::ArtifactIo { path, message } => write!(f, "{path}: {message}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<MemError> for RunError {
    fn from(error: MemError) -> Self {
        RunError::Sim { error }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_stable_and_displays_are_concise() {
        let errors = [
            RunError::MachinePanic {
                payload: "boom".into(),
            },
            RunError::Sim {
                error: MemError::OutOfMemory { order: 3 },
            },
            RunError::FaultPlanExhausted { order: 0 },
            RunError::BudgetExceeded {
                budget: "wall",
                limit: 250,
            },
            RunError::ArtifactIo {
                path: "results/x.json".into(),
                message: "permission denied".into(),
            },
        ];
        let kinds: Vec<_> = errors.iter().map(RunError::kind).collect();
        assert_eq!(
            kinds,
            [
                "machine_panic",
                "sim",
                "fault_plan_exhausted",
                "budget_exceeded",
                "artifact_io"
            ]
        );
        for e in &errors {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(!msg.ends_with('.'), "no trailing punctuation: {msg}");
        }
    }

    #[test]
    fn panic_payloads_stringify() {
        let caught = std::panic::catch_unwind(|| panic!("chaos at cell 3")).unwrap_err();
        match RunError::from_panic(caught.as_ref()) {
            RunError::MachinePanic { payload } => assert!(payload.contains("chaos at cell 3")),
            other => panic!("expected MachinePanic, got {other:?}"),
        }
        let caught = std::panic::catch_unwind(|| std::panic::panic_any(42_u64)).unwrap_err();
        assert_eq!(
            RunError::from_panic(caught.as_ref()),
            RunError::MachinePanic {
                payload: "non-string panic payload".into()
            }
        );
    }

    #[test]
    fn mem_errors_convert() {
        let e: RunError = MemError::InvalidVma.into();
        assert_eq!(e.kind(), "sim");
    }

    #[test]
    fn error_is_send_sync_static() {
        fn assert_good<E: std::error::Error + Send + Sync + 'static>() {}
        assert_good::<RunError>();
    }
}
