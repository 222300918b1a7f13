//! Shared error type for memory-management operations across the workspace.

/// Errors produced by allocators, page tables, and OS models.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum MemError {
    /// The physical memory pool cannot satisfy the request.
    OutOfMemory {
        /// Buddy order of the failed request (0 = one page).
        order: u32,
    },
    /// A translation was requested for an address with no mapping.
    Unmapped {
        /// Raw page number that had no translation.
        vpn: u64,
    },
    /// A mapping was inserted where one already exists.
    AlreadyMapped {
        /// Raw page number of the conflicting mapping.
        vpn: u64,
    },
    /// An address fell outside the region it must belong to (e.g. a
    /// guest-physical address beyond the VM's RAM size).
    OutOfRange {
        /// The offending raw address or page number.
        value: u64,
        /// Exclusive upper bound that was violated.
        limit: u64,
    },
    /// A frame was freed that is not currently allocated, or freed with the
    /// wrong order.
    InvalidFree {
        /// Raw frame number of the bad free.
        frame: u64,
    },
    /// The operation referenced a process that does not exist.
    NoSuchProcess {
        /// Process identifier that failed to resolve.
        pid: u64,
    },
    /// A virtual-memory-area operation was invalid (overlap, zero length, …).
    InvalidVma,
}

impl core::fmt::Display for MemError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MemError::OutOfMemory { order } => {
                write!(f, "out of physical memory for order-{order} request")
            }
            MemError::Unmapped { vpn } => write!(f, "no translation for page {vpn:#x}"),
            MemError::AlreadyMapped { vpn } => {
                write!(f, "page {vpn:#x} is already mapped")
            }
            MemError::OutOfRange { value, limit } => {
                write!(f, "value {value:#x} outside valid range (limit {limit:#x})")
            }
            MemError::InvalidFree { frame } => {
                write!(f, "invalid free of frame {frame:#x}")
            }
            MemError::NoSuchProcess { pid } => write!(f, "no such process {pid}"),
            MemError::InvalidVma => write!(f, "invalid virtual memory area operation"),
        }
    }
}

impl std::error::Error for MemError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_concise() {
        let msgs = [
            MemError::OutOfMemory { order: 3 }.to_string(),
            MemError::Unmapped { vpn: 0x10 }.to_string(),
            MemError::AlreadyMapped { vpn: 0x10 }.to_string(),
            MemError::OutOfRange { value: 9, limit: 8 }.to_string(),
            MemError::InvalidFree { frame: 4 }.to_string(),
            MemError::NoSuchProcess { pid: 1 }.to_string(),
            MemError::InvalidVma.to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
            assert!(!m.ends_with('.'), "no trailing punctuation: {m}");
            assert!(m.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn error_is_send_sync_static() {
        fn assert_good<E: std::error::Error + Send + Sync + 'static>() {}
        assert_good::<MemError>();
    }
}
