//! Memory-system model: TCM scratch, DDR heap, and session VA accounting.
//!
//! The Hexagon NPU's memory hierarchy (paper Figure 3) is: DDR, a shared
//! 1 MiB L2, and 8 MiB of software-managed TCM. `l2fetch` pulls DDR into L2
//! (20-30 GB/s); the DMA engine moves 1D/2D blocks into TCM (~60 GB/s);
//! vector scatter/gather and *all* HMX instructions can only touch TCM.
//! This module provides the storage; bandwidth costs are charged by
//! [`crate::ctx::NpuContext`], which owns both the storage and the cost
//! model.
//!
//! A [`DdrBuffer`] handle is an index into the heap's slab of buffer
//! slots, so every DMA finds its buffer with one bounds-checked load
//! instead of a hash lookup. Handles are issued in increasing order from
//! 1 and never reused: a freed buffer leaves an empty slot behind (one
//! slot per allocation the context ever made), so a freed, never-issued
//! or zero handle finds no buffer and panics.

use crate::error::{SimError, SimResult};

/// A byte address inside the TCM (valid range `0..tcm_bytes`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TcmAddr(pub u32);

impl TcmAddr {
    /// Returns the address advanced by `bytes`.
    #[inline]
    pub fn offset(self, bytes: u32) -> TcmAddr {
        TcmAddr(self.0 + bytes)
    }
}

/// Handle to a DDR allocation owned by the simulated NPU session.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DdrBuffer(pub u64);

pub(crate) struct DdrBufferState {
    pub size: u64,
    /// Session VA space this allocation is mapped into, or
    /// [`STAGING_SESSION`] for CPU-owned staging allocations that live
    /// outside every NPU session's VA space.
    pub session: usize,
    /// Backing bytes; `None` in cost-only mode (shape-level simulation).
    pub data: Option<Vec<u8>>,
}

/// Sentinel session label for staging allocations: DDR that the CPU owns
/// and the NPU reaches only through explicit streamed copies, so it does
/// not consume any session's VA space.
pub(crate) const STAGING_SESSION: usize = usize::MAX;

/// Heap of DDR allocations with session VA-space accounting.
///
/// The VA limit models the 32-bit address space of a single NPU session: on
/// Snapdragon 8 Gen 2 only ~2 GiB is usable, which is exactly why the paper
/// cannot run 3B-parameter models there (Section 7.2.1, Figure 11).
///
/// A heap created with [`DdrHeap::with_sessions`] models the paper's
/// Section 8 workaround instead: up to `max_sessions` independent VA
/// spaces, each `va_per_session` bytes. The heap enforces the *envelope*
/// those sessions provide — no single buffer may exceed one session, and
/// the total mapped bytes may not exceed `max_sessions *
/// va_per_session` — while bin-level placement is the shard planner's
/// job (a loader maps buffers where the plan says, not in allocation
/// order, and any plan-feasible placement refines to the heap's finer
/// per-buffer granularity). Session labels are assigned first-fit,
/// falling back to the least-used session rather than failing, precisely
/// because allocation order is not placement.
pub(crate) struct DdrHeap {
    /// Every buffer this heap ever allocated, at the index of its handle:
    /// slot 0 is never issued and a freed buffer's slot stays `None`.
    buffers: Vec<Option<DdrBufferState>>,
    pub mapped_bytes: u64,
    /// Bytes in the CPU-owned staging region (outside every session's VA).
    pub staged_bytes: u64,
    /// VA capacity of each session (32-bit space minus reserved regions).
    pub va_per_session: u64,
    /// Maximum number of sessions this heap may open.
    pub max_sessions: usize,
    /// Bytes mapped into each currently open session.
    session_used: Vec<u64>,
}

impl DdrHeap {
    pub fn with_sessions(va_per_session: u64, max_sessions: usize) -> Self {
        assert!(max_sessions >= 1, "a heap needs at least one session");
        DdrHeap {
            buffers: vec![None],
            mapped_bytes: 0,
            staged_bytes: 0,
            va_per_session,
            max_sessions,
            session_used: vec![0],
        }
    }

    /// Checks the session envelope and picks a session label for a new
    /// allocation: first-fit over open sessions, opening a new one while
    /// allowed, else the least-used session (see the type-level docs for
    /// why running out of first-fit room is not a failure).
    fn place(&mut self, size: u64) -> SimResult<usize> {
        if size > self.va_per_session {
            // A single buffer larger than one session can never map.
            return Err(SimError::VaSpaceExceeded {
                capacity: self.va_per_session,
                mapped: self.mapped_bytes,
                requested: size,
            });
        }
        let total_capacity = self.va_per_session * self.max_sessions as u64;
        if self.mapped_bytes + size > total_capacity {
            return Err(SimError::VaSpaceExceeded {
                capacity: total_capacity,
                mapped: self.mapped_bytes,
                requested: size,
            });
        }
        if let Some(s) = self
            .session_used
            .iter()
            .position(|&used| used + size <= self.va_per_session)
        {
            return Ok(s);
        }
        if self.session_used.len() < self.max_sessions {
            self.session_used.push(0);
            return Ok(self.session_used.len() - 1);
        }
        let least = self
            .session_used
            .iter()
            .enumerate()
            .min_by_key(|&(_, &used)| used)
            .map(|(i, _)| i)
            .expect("at least one session is always open");
        Ok(least)
    }

    /// Fills the next slot and returns its handle.
    fn push(&mut self, size: u64, session: usize, materialize: bool) -> DdrBuffer {
        let data = materialize.then(|| vec![0u8; size as usize]);
        self.buffers.push(Some(DdrBufferState {
            size,
            session,
            data,
        }));
        DdrBuffer(self.buffers.len() as u64 - 1)
    }

    pub fn alloc(&mut self, size: u64, materialize: bool) -> SimResult<DdrBuffer> {
        let session = self.place(size)?;
        self.mapped_bytes += size;
        self.session_used[session] += size;
        Ok(self.push(size, session, materialize))
    }

    /// Allocates in the CPU-owned staging region: no session VA is
    /// consumed, so the envelope checks of [`DdrHeap::place`] do not apply.
    /// The weight-streaming path parks cold layers here and copies each
    /// into a small session-resident window right before its layer runs.
    pub fn alloc_staged(&mut self, size: u64, materialize: bool) -> DdrBuffer {
        self.staged_bytes += size;
        self.push(size, STAGING_SESSION, materialize)
    }

    /// Returns a buffer's bytes to its session (or the staging region).
    /// Freeing a freed or foreign handle does nothing.
    pub fn free(&mut self, buf: DdrBuffer) {
        if let Some(state) = self.buffers.get_mut(slot(buf)).and_then(Option::take) {
            if state.session == STAGING_SESSION {
                self.staged_bytes -= state.size;
            } else {
                self.mapped_bytes -= state.size;
                self.session_used[state.session] -= state.size;
            }
        }
    }

    /// # Panics
    ///
    /// Panics if `buf` was freed or never issued by this heap.
    #[inline]
    pub fn get(&self, buf: DdrBuffer) -> &DdrBufferState {
        self.buffers
            .get(slot(buf))
            .and_then(Option::as_ref)
            .expect("use of freed or foreign DdrBuffer")
    }

    /// # Panics
    ///
    /// Panics if `buf` was freed or never issued by this heap.
    #[inline]
    pub fn get_mut(&mut self, buf: DdrBuffer) -> &mut DdrBufferState {
        self.buffers
            .get_mut(slot(buf))
            .and_then(Option::as_mut)
            .expect("use of freed or foreign DdrBuffer")
    }
}

/// The slab index of a handle; one no slab reaches if it does not fit.
#[inline]
fn slot(buf: DdrBuffer) -> usize {
    usize::try_from(buf.0).unwrap_or(usize::MAX)
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;

    /// The heap as a map from handle to buffer, with the same placement
    /// rule: the reference the slab must agree with.
    struct MapHeap {
        buffers: HashMap<u64, (u64, usize, bool)>,
        next_id: u64,
        mapped_bytes: u64,
        staged_bytes: u64,
        va_per_session: u64,
        max_sessions: usize,
        session_used: Vec<u64>,
    }

    impl MapHeap {
        fn new(va_per_session: u64, max_sessions: usize) -> Self {
            MapHeap {
                buffers: HashMap::new(),
                next_id: 1,
                mapped_bytes: 0,
                staged_bytes: 0,
                va_per_session,
                max_sessions,
                session_used: vec![0],
            }
        }

        /// First fit, else a new session, else the least used one; `None`
        /// if the buffer exceeds one session or the envelope.
        fn place(&mut self, size: u64) -> Option<usize> {
            let cap = self.va_per_session;
            if size > cap || self.mapped_bytes + size > cap * self.max_sessions as u64 {
                return None;
            }
            if let Some(s) =
                (0..self.session_used.len()).find(|&s| self.session_used[s] + size <= cap)
            {
                return Some(s);
            }
            if self.session_used.len() < self.max_sessions {
                self.session_used.push(0);
                return Some(self.session_used.len() - 1);
            }
            (0..self.session_used.len()).min_by_key(|&s| self.session_used[s])
        }

        fn alloc(&mut self, size: u64, materialize: bool, staged: bool) -> Option<u64> {
            let session = if staged {
                self.staged_bytes += size;
                STAGING_SESSION
            } else {
                let s = self.place(size)?;
                self.mapped_bytes += size;
                self.session_used[s] += size;
                s
            };
            let id = self.next_id;
            self.next_id += 1;
            self.buffers.insert(id, (size, session, materialize));
            Some(id)
        }

        fn free(&mut self, id: u64) {
            if let Some((size, session, _)) = self.buffers.remove(&id) {
                if session == STAGING_SESSION {
                    self.staged_bytes -= size;
                } else {
                    self.mapped_bytes -= size;
                    self.session_used[session] -= size;
                }
            }
        }
    }

    #[test]
    fn slab_heap_matches_the_map_reference_on_random_sequences() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        for case in 0..60 {
            let va = 500 + next(2000);
            let sessions = 1 + next(3) as usize;
            let mut heap = DdrHeap::with_sessions(va, sessions);
            let mut want = MapHeap::new(va, sessions);
            for step in 0..150 {
                let size = next(va + va / 4);
                let materialize = next(4) == 0;
                match next(8) {
                    0..=2 => {
                        let got = heap.alloc(size, materialize);
                        let id = want.alloc(size, materialize, false);
                        assert_eq!(
                            got.as_ref().ok().map(|b| b.0),
                            id,
                            "case {case} step {step}"
                        );
                        assert!(
                            got.is_ok() || matches!(got, Err(SimError::VaSpaceExceeded { .. }))
                        );
                    }
                    3 => {
                        let got = heap.alloc_staged(size, materialize);
                        assert_eq!(Some(got.0), want.alloc(size, materialize, true));
                    }
                    // Frees reach live, freed, never-issued and zero handles.
                    4..=6 => {
                        let id = next(want.next_id + 2);
                        heap.free(DdrBuffer(id));
                        want.free(id);
                    }
                    _ => {}
                }
                assert_eq!(
                    heap.mapped_bytes, want.mapped_bytes,
                    "case {case} step {step}"
                );
                assert_eq!(
                    heap.staged_bytes, want.staged_bytes,
                    "case {case} step {step}"
                );
                assert_eq!(
                    heap.session_used, want.session_used,
                    "case {case} step {step}"
                );
                for (&id, &(size, session, materialized)) in &want.buffers {
                    let got = heap.get(DdrBuffer(id));
                    assert_eq!(
                        (got.size, got.session),
                        (size, session),
                        "case {case} id {id}"
                    );
                    let len = got.data.as_ref().map(Vec::len);
                    assert_eq!(len, materialized.then_some(size as usize));
                }
                let live = heap.buffers.iter().filter(|b| b.is_some()).count();
                assert_eq!(live, want.buffers.len(), "case {case} step {step}");
            }
        }
    }

    #[test]
    fn freeing_twice_is_a_no_op() {
        let mut heap = DdrHeap::with_sessions(1000, 2);
        let a = heap.alloc(600, false).unwrap();
        let b = heap.alloc(700, false).unwrap();
        let s = heap.alloc_staged(50, true);
        heap.free(a);
        heap.free(s);
        let after_first = (
            heap.mapped_bytes,
            heap.staged_bytes,
            heap.session_used.clone(),
        );
        heap.free(a);
        heap.free(s);
        heap.free(DdrBuffer(0));
        assert_eq!(
            (
                heap.mapped_bytes,
                heap.staged_bytes,
                heap.session_used.clone()
            ),
            after_first
        );
        assert_eq!(after_first, (700, 0, vec![0, 700]));
        assert_eq!(heap.get(b).size, 700);
    }

    #[test]
    fn va_space_is_enforced() {
        let mut heap = DdrHeap::with_sessions(1000, 1);
        let a = heap.alloc(600, false).unwrap();
        let err = heap.alloc(600, false).unwrap_err();
        assert!(matches!(err, SimError::VaSpaceExceeded { .. }));
        heap.free(a);
        heap.alloc(600, false).unwrap();
    }

    #[test]
    fn free_returns_va_space() {
        let mut heap = DdrHeap::with_sessions(100, 1);
        let a = heap.alloc(100, false).unwrap();
        assert_eq!(heap.mapped_bytes, 100);
        heap.free(a);
        assert_eq!(heap.mapped_bytes, 0);
    }

    #[test]
    fn materialized_buffers_are_zeroed() {
        let mut heap = DdrHeap::with_sessions(1 << 20, 1);
        let a = heap.alloc(64, true).unwrap();
        let state = heap.get(a);
        assert_eq!(state.data.as_ref().unwrap().len(), 64);
        assert!(state.data.as_ref().unwrap().iter().all(|&b| b == 0));
    }

    #[test]
    fn cost_only_buffers_have_no_backing() {
        let mut heap = DdrHeap::with_sessions(1 << 40, 1);
        let a = heap.alloc(1 << 35, false).unwrap(); // 32 GiB, shape only.
        assert!(heap.get(a).data.is_none());
        assert_eq!(heap.get(a).size, 1 << 35);
    }

    #[test]
    fn tcm_addr_offset() {
        assert_eq!(TcmAddr(128).offset(64), TcmAddr(192));
    }

    #[test]
    fn multi_session_heap_opens_sessions_first_fit() {
        // Three 600-byte buffers over 1000-byte sessions: two sessions,
        // with the third buffer backfilling nothing (first-fit).
        let mut heap = DdrHeap::with_sessions(1000, 3);
        heap.alloc(600, false).unwrap();
        assert_eq!(heap.session_used.len(), 1);
        heap.alloc(600, false).unwrap();
        assert_eq!(heap.session_used.len(), 2);
        // 300 bytes first-fits back into session 0's slack.
        let small = heap.alloc(300, false).unwrap();
        assert_eq!(heap.session_used.len(), 2);
        assert_eq!(heap.get(small).session, 0);
    }

    #[test]
    fn multi_session_heap_enforces_session_cap() {
        let mut heap = DdrHeap::with_sessions(1000, 2);
        heap.alloc(900, false).unwrap();
        heap.alloc(900, false).unwrap();
        let err = heap.alloc(900, false).unwrap_err();
        assert!(matches!(err, SimError::VaSpaceExceeded { .. }));
        // A single buffer larger than one session can never map.
        assert!(heap.alloc(1001, false).is_err());
    }

    #[test]
    fn envelope_is_order_insensitive() {
        // 800 + 800 + 400 over two 1000-byte sessions: a strict first-fit
        // bin packer would reject the 400 (each session has 200 slack),
        // but real placement follows the shard plan, not allocation
        // order — the heap only enforces the 2000-byte envelope.
        let mut heap = DdrHeap::with_sessions(1000, 2);
        heap.alloc(800, false).unwrap();
        heap.alloc(800, false).unwrap();
        heap.alloc(400, false).unwrap();
        assert_eq!(heap.mapped_bytes, 2000);
        // The envelope itself is still binding.
        assert!(matches!(
            heap.alloc(1, false).unwrap_err(),
            SimError::VaSpaceExceeded { .. }
        ));
    }

    #[test]
    fn staged_allocations_bypass_the_session_envelope() {
        let mut heap = DdrHeap::with_sessions(1000, 1);
        heap.alloc(900, false).unwrap();
        // 5000 bytes would overflow the session envelope five times over,
        // but the staging region is CPU memory with no VA constraint.
        let staged = heap.alloc_staged(5000, true);
        assert_eq!(heap.staged_bytes, 5000);
        assert_eq!(heap.mapped_bytes, 900);
        assert_eq!(heap.session_used.len(), 1);
        assert_eq!(heap.get(staged).session, STAGING_SESSION);
        assert_eq!(heap.get(staged).data.as_ref().unwrap().len(), 5000);
        heap.free(staged);
        assert_eq!(heap.staged_bytes, 0);
        assert_eq!(heap.mapped_bytes, 900);
    }

    #[test]
    fn multi_session_free_returns_space_to_owning_session() {
        let mut heap = DdrHeap::with_sessions(1000, 2);
        let a = heap.alloc(900, false).unwrap();
        let b = heap.alloc(900, false).unwrap();
        assert_eq!(heap.get(a).session, 0);
        assert_eq!(heap.get(b).session, 1);
        heap.free(a);
        // Session 0 has room again; a new buffer lands there.
        let c = heap.alloc(800, false).unwrap();
        assert_eq!(heap.get(c).session, 0);
        assert_eq!(heap.mapped_bytes, 1700);
    }
}
