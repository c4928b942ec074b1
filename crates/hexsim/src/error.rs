//! Error type for modelled runtime failures of the simulated NPU.
//!
//! Programmer errors (out-of-bounds TCM addresses, misaligned tiles) panic,
//! mirroring how they would fault on silicon; *modelled* conditions that the
//! paper's runtime must handle — allocation exhaustion, the 32-bit session
//! address-space limit — surface as [`SimError`] so callers can react the
//! way the paper's system does (e.g. refusing to map a 3B model on
//! Snapdragon 8 Gen 2).

use std::fmt;

/// A modelled runtime failure of the simulated NPU or its runtime.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// TCM bump allocator exhausted (capacity, requested bytes).
    TcmExhausted {
        /// Total TCM capacity in bytes.
        capacity: u32,
        /// Size of the failed request in bytes.
        requested: u32,
    },
    /// Mapping would exceed the NPU session's virtual address space.
    ///
    /// This reproduces the Snapdragon 8 Gen 2 limitation that prevents
    /// models of 3B+ parameters from running (paper Section 7.2.1).
    VaSpaceExceeded {
        /// Session VA capacity in bytes.
        capacity: u64,
        /// Bytes already mapped.
        mapped: u64,
        /// Size of the failed mapping in bytes.
        requested: u64,
    },
    /// A DMA descriptor was malformed (zero rows, overlapping ranges, ...).
    BadDma {
        /// Human-readable description of the problem.
        reason: String,
    },
    /// The requested model/session combination is unsupported on the device.
    Unsupported {
        /// Human-readable description of the gate.
        reason: String,
    },
    /// A caller-supplied configuration is malformed (an empty fleet, a
    /// zero-token prefill chunk, ...).
    InvalidConfig {
        /// Human-readable description of the problem.
        reason: String,
    },
    /// A caller-supplied request trace is malformed (a duplicate id, an
    /// empty prompt, a non-finite arrival, ...).
    InvalidTrace {
        /// Human-readable description of the problem.
        reason: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::TcmExhausted {
                capacity,
                requested,
            } => write!(
                f,
                "TCM exhausted: requested {requested} B of {capacity} B scratch"
            ),
            SimError::VaSpaceExceeded {
                capacity,
                mapped,
                requested,
            } => write!(
                f,
                "NPU session VA space exceeded: {mapped} B mapped + {requested} B \
                 requested > {capacity} B"
            ),
            SimError::BadDma { reason } => write!(f, "bad DMA descriptor: {reason}"),
            SimError::Unsupported { reason } => write!(f, "unsupported: {reason}"),
            SimError::InvalidConfig { reason } => write!(f, "invalid config: {reason}"),
            SimError::InvalidTrace { reason } => write!(f, "invalid trace: {reason}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Convenience alias for simulator results.
pub type SimResult<T> = Result<T, SimError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = SimError::VaSpaceExceeded {
            capacity: 2 << 30,
            mapped: 1 << 30,
            requested: 2 << 30,
        };
        let msg = e.to_string();
        assert!(msg.contains("VA space"));
    }
}
