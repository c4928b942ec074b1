//! FastRPC/rpcmem command ring: the CPU <-> NPU transport protocol.
//!
//! The paper's runtime (Section 6) starts a remote NPU session over
//! FastRPC, then switches to a shared-memory command channel: the CPU
//! writes a request descriptor into rpcmem, cleans the cache (one-way
//! coherence), and an NPU-side thread polls the region for work. Responses
//! flow back without maintenance because NPU writes are CPU-visible. This
//! module reproduces that protocol over [`crate::shared::SharedBuffer`],
//! including the failure mode the coherence model catches: skipping
//! `cache_clean` delivers stale descriptors.
//!
//! The ring lives in `hexsim` (rather than the system crate upstairs)
//! because it is part of the device substrate. It models the protocol
//! only and charges nothing: `edgellm`'s layer walk prices each dispatched
//! op at a calibrated per-op overhead without passing descriptors through
//! a ring, and `edgellm::overlap` models the depth-2 ring at step level.

use crate::error::{SimError, SimResult};
use crate::shared::SharedBuffer;

/// Command opcodes the CPU can enqueue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpCode {
    /// No operation (used for liveness checks).
    Nop,
    /// Matrix multiply with streamed dequantization.
    MatMul,
    /// FlashAttention over a KV range.
    Attention,
    /// RMSNorm / RoPE / activation (grouped as "misc").
    Misc,
}

/// A command descriptor as written into the shared ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    /// Monotonic sequence number.
    pub seq: u32,
    /// Operation.
    pub op: OpCode,
    /// Opaque argument word (tensor handle, length, ...).
    pub arg: u32,
}

const REQ_BYTES: usize = 12;
const RING_SLOTS: usize = 64;
const HDR_BYTES: usize = 8; // head (u32) + tail (u32).

fn encode(req: &Request) -> [u8; REQ_BYTES] {
    let mut out = [0u8; REQ_BYTES];
    out[0..4].copy_from_slice(&req.seq.to_le_bytes());
    out[4..8].copy_from_slice(&(req.op as u32).to_le_bytes());
    out[8..12].copy_from_slice(&req.arg.to_le_bytes());
    out
}

fn decode(bytes: &[u8]) -> Request {
    let seq = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    let op = match u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]) {
        0 => OpCode::Nop,
        1 => OpCode::MatMul,
        2 => OpCode::Attention,
        _ => OpCode::Misc,
    };
    let arg = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    Request { seq, op, arg }
}

/// One CPU <-> NPU command session over shared memory.
pub struct NpuSession {
    ring: SharedBuffer,
    next_seq: u32,
    head: u32,
    tail: u32,
}

impl NpuSession {
    /// Opens a session: allocates the command ring and "starts" the NPU
    /// poller (modelled synchronously). The ring charges nothing itself:
    /// its cost is folded into the calibrated per-op dispatch overhead
    /// the layer walk charges per completed descriptor.
    pub fn open() -> Self {
        NpuSession {
            ring: SharedBuffer::new(1, HDR_BYTES + RING_SLOTS * REQ_BYTES),
            next_seq: 1,
            head: 0,
            tail: 0,
        }
    }

    /// Number of requests currently queued.
    fn pending(&self) -> u32 {
        self.head - self.tail
    }

    /// CPU side: enqueues a request descriptor. `clean` controls whether
    /// the cache maintenance step is performed — passing `false` models the
    /// bug the coherence check exists to catch.
    pub fn submit(&mut self, op: OpCode, arg: u32, clean: bool) -> SimResult<u32> {
        if self.pending() as usize >= RING_SLOTS {
            return Err(SimError::Unsupported {
                reason: "command ring full".to_string(),
            });
        }
        let req = Request {
            seq: self.next_seq,
            op,
            arg,
        };
        self.next_seq += 1;
        let slot = (self.head as usize) % RING_SLOTS;
        self.ring
            .cpu_write(HDR_BYTES + slot * REQ_BYTES, &encode(&req));
        self.head += 1;
        let head = self.head;
        self.ring.cpu_write(0, &head.to_le_bytes());
        if clean {
            self.ring.cache_clean();
        }
        Ok(req.seq)
    }

    /// NPU side: polls the ring and dispatches at most one request.
    /// Returns the request if one was executed.
    pub fn poll_dispatch(&mut self) -> SimResult<Option<Request>> {
        // The poller reads the head pointer from shared memory.
        let head_bytes = self.ring.npu_read(0, 4)?;
        let head = u32::from_le_bytes([head_bytes[0], head_bytes[1], head_bytes[2], head_bytes[3]]);
        if head == self.tail {
            return Ok(None);
        }
        let slot = (self.tail as usize) % RING_SLOTS;
        let req = decode(
            self.ring
                .npu_read(HDR_BYTES + slot * REQ_BYTES, REQ_BYTES)?,
        );
        self.tail += 1;
        // Completion: NPU writes are CPU-visible without maintenance.
        let tail = self.tail;
        self.ring.npu_write(4, &tail.to_le_bytes());
        Ok(Some(req))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_then_poll_roundtrip() {
        let mut s = NpuSession::open();
        let seq = s.submit(OpCode::MatMul, 42, true).unwrap();
        let req = s.poll_dispatch().unwrap().unwrap();
        assert_eq!(req.seq, seq);
        assert_eq!(req.op, OpCode::MatMul);
        assert_eq!(req.arg, 42);
        assert!(s.poll_dispatch().unwrap().is_none());
    }

    #[test]
    fn skipping_cache_clean_faults_in_strict_mode() {
        // The bug class Section 6 warns about: CPU writes the descriptor
        // but does not clean the cache before the NPU polls.
        let mut s = NpuSession::open();
        s.submit(OpCode::Attention, 7, false).unwrap();
        let err = s.poll_dispatch().unwrap_err();
        assert!(matches!(err, SimError::CoherenceViolation { .. }));
    }

    #[test]
    fn requests_dispatch_in_order() {
        let mut s = NpuSession::open();
        for i in 0..5 {
            s.submit(OpCode::Misc, i, true).unwrap();
        }
        for i in 0..5 {
            let req = s.poll_dispatch().unwrap().unwrap();
            assert_eq!(req.arg, i);
        }
    }

    #[test]
    fn ring_capacity_is_enforced() {
        let mut s = NpuSession::open();
        for i in 0..64 {
            s.submit(OpCode::Nop, i, true).unwrap();
        }
        let err = s.submit(OpCode::Nop, 99, true).unwrap_err();
        assert!(matches!(err, SimError::Unsupported { .. }));
    }
}
