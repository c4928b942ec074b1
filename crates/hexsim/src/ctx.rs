//! The NPU execution context: storage + datapath + cost accounting.
//!
//! [`NpuContext`] is the single handle kernels program against. Every method
//! that corresponds to an NPU instruction or engine transfer *charges* its
//! cost, and in [`ExecMode::Functional`] also *executes* it (bytes really
//! move, lanes really compute), so the latency figures reported by the
//! benchmark harness are derived from the same code path the correctness
//! tests exercise.
//!
//! In [`ExecMode::CostOnly`] the same methods charge but do not compute.
//! They issue exactly the charges functional mode issues, in the same
//! order, and keep their TCM bounds and alignment assertions; then they
//! return zeroed registers without computing lanes or writing TCM, so a
//! cost-only context keeps no TCM storage at all. Charges depend only on
//! shapes, so both modes report the same simulated time while paper-scale
//! sweeps skip arithmetic whose results they discard.
//!
//! [`NpuContext::charge_only`] applies the cost-only semantics to one
//! closure in either mode. A fused functional kernel runs its instruction
//! sequence under it for the charges and the TCM bounds checks, then
//! computes the sequence's result over contiguous host lanes in one pass.
//! The instruction trace stays the only source of charges, so functional
//! and cost-only runs of the kernel still charge the same, in the same
//! order.
//!
//! Every method a kernel calls per simulated instruction (here and the
//! `CostModel` charges it calls) is `#[inline]`. Kernels live in other
//! crates, and without LTO rustc inlines a non-generic function across
//! crates only when it is marked (or is a tiny leaf), so an unmarked op
//! costs a cost-only run an out-of-line call per instruction.
//!
//! Cost conventions (see `crates/hexsim/src/cost.rs`):
//! - compute instructions charge packets (1 vector-clock cycle each, except
//!   `vgather`, which charges the device's published 24-48 packets);
//! - memory operations charge bytes at the engine's calibrated bandwidth
//!   (TCM path, DDR core path, DMA, or `l2fetch`) and no packets — on real
//!   silicon loads dual-issue with compute, so bandwidth is the binding
//!   constraint.

use crate::cost::{CostModel, PhaseCost};
use crate::device::DeviceProfile;
use crate::error::{SimError, SimResult};
use crate::f16::F16;
use crate::hmx::{self, HmxAccumulator, TILE_BYTES, TILE_DIM};
use crate::hvx::{self, HvxVec, HVX_BYTES, HVX_HALVES};
use crate::mem::{DdrBuffer, DdrHeap, TcmAddr};
use std::ops::Range;

/// How the context executes kernels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Full functional simulation: DDR buffers are materialized and all data
    /// paths compute real bytes. Use for correctness tests and small models.
    Functional,
    /// Shape-level simulation: DDR buffers track sizes only and
    /// [`NpuContext::replay`] extrapolates one representative block's cost.
    /// Every datapath method issues exactly its functional charges and
    /// keeps its bounds and alignment assertions, but computes no lanes and
    /// writes no TCM: registers come back zeroed, and the context holds no
    /// TCM data (peeks read zeros). Use for paper-scale latency sweeps.
    CostOnly,
}

/// Largest TCM a cost-only context can model (every device profile has
/// 8 MiB).
const COST_ONLY_TCM_BYTES: usize = 8 * 1024 * 1024;

/// What every cost-only context reads as TCM. Cost-only mode never writes
/// TCM, so instead of one zeroed buffer per context they share this static
/// one, which costs no resident memory.
static COST_ONLY_TCM: [u8; COST_ONLY_TCM_BYTES] = [0; COST_ONLY_TCM_BYTES];

/// Saved TCM allocator position, for stack-discipline scratch reuse.
#[derive(Clone, Copy, Debug)]
pub struct TcmMark(u32);

/// The simulated NPU: TCM, DDR heap, HVX/HMX datapaths and the cost model.
pub struct NpuContext {
    device: DeviceProfile,
    /// Execution mode (functional vs shape-level).
    pub mode: ExecMode,
    /// Cost accounting for everything this context executed.
    pub cost: CostModel,
    /// TCM contents; empty in cost-only mode, which reads
    /// [`COST_ONLY_TCM`] instead.
    tcm: Vec<u8>,
    tcm_top: u32,
    ddr: DdrHeap,
    /// When set, DDR allocations land in the CPU-owned staging region
    /// instead of session VA (see [`NpuContext::set_ddr_staging`]).
    ddr_staging: bool,
}

impl NpuContext {
    /// Creates a context for a device in the given mode, with a single
    /// NPU session's virtual address space.
    pub fn new(device: DeviceProfile, mode: ExecMode) -> Self {
        Self::new_sharded(device, mode, 1)
    }

    /// Creates a context backed by up to `max_sessions` NPU sessions, each
    /// with its own `session_va_bytes` of virtual address space — the
    /// paper's Section 8 workaround for models whose weights exceed one
    /// 32-bit session. The DDR heap enforces the sessions' aggregate VA
    /// envelope (no buffer larger than one session, no total beyond
    /// `max_sessions` sessions); bin-level placement belongs to the shard
    /// planner upstairs. Everything else (TCM, datapaths, cost model) is
    /// shared, because the Hexagon hardware behind every session is the
    /// same physical NPU.
    ///
    /// # Panics
    ///
    /// Panics in cost-only mode if the device's TCM exceeds the 8 MiB a
    /// cost-only context can model.
    pub fn new_sharded(device: DeviceProfile, mode: ExecMode, max_sessions: usize) -> Self {
        let tcm = match mode {
            ExecMode::Functional => vec![0u8; device.tcm_bytes as usize],
            ExecMode::CostOnly => {
                assert!(
                    device.tcm_bytes as usize <= COST_ONLY_TCM_BYTES,
                    "cost-only contexts model at most {COST_ONLY_TCM_BYTES} bytes of TCM"
                );
                Vec::new()
            }
        };
        let ddr = DdrHeap::with_sessions(device.session_va_bytes, max_sessions);
        let cost = CostModel::new(device.clone());
        NpuContext {
            device,
            mode,
            cost,
            tcm,
            tcm_top: 0,
            ddr,
            ddr_staging: false,
        }
    }

    /// The device profile this context simulates.
    pub fn device(&self) -> &DeviceProfile {
        &self.device
    }

    /// Runs a datapath computation in functional mode. In cost-only mode
    /// the caller has already issued the charge, and the zeroed register
    /// (or register pair) stands in for the result.
    #[inline]
    fn lanes<T: Default>(&self, compute: impl FnOnce() -> T) -> T {
        match self.mode {
            ExecMode::Functional => compute(),
            ExecMode::CostOnly => T::default(),
        }
    }

    /// The bounds check of a `len`-byte TCM access at byte `start`, which
    /// cost-only mode keeps even though it moves no bytes. The arithmetic is
    /// in `usize`, so no range end wraps past `u32::MAX`. Returns the range.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds TCM.
    #[inline]
    fn assert_in_tcm(&self, start: usize, len: usize) -> Range<usize> {
        assert!(
            start + len <= self.device.tcm_bytes as usize,
            "TCM range {start:#x}+{len} outside TCM"
        );
        start..start + len
    }

    /// Runs `f` with cost-only semantics in either mode: every datapath
    /// method it calls issues its charges and keeps its bounds and
    /// alignment checks, but computes no lanes, writes no TCM and moves no
    /// DMA bytes, and [`NpuContext::replay`] extrapolates one block.
    ///
    /// Fused kernels run their instruction sequence under this for its
    /// charges, then compute the sequence's result in one pass.
    pub fn charge_only<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        let mode = std::mem::replace(&mut self.mode, ExecMode::CostOnly);
        let r = f(self);
        self.mode = mode;
        r
    }

    // ------------------------------------------------------------------
    // TCM management.
    // ------------------------------------------------------------------

    /// Allocates `bytes` of TCM with the given alignment (bump allocator).
    /// A request that does not fit (even one whose end would overflow
    /// `u32`) fails without moving the allocator.
    pub fn tcm_alloc(&mut self, bytes: u32, align: u32) -> SimResult<TcmAddr> {
        let align = align.max(1);
        let base = self.tcm_top.div_ceil(align).checked_mul(align);
        let end = base.and_then(|base| base.checked_add(bytes));
        match (base, end) {
            (Some(base), Some(end)) if end <= self.device.tcm_bytes => {
                self.tcm_top = end;
                Ok(TcmAddr(base))
            }
            _ => Err(SimError::TcmExhausted {
                capacity: self.device.tcm_bytes,
                requested: bytes,
            }),
        }
    }

    /// Saves the allocator position; restore with [`NpuContext::tcm_release`].
    pub fn tcm_mark(&self) -> TcmMark {
        TcmMark(self.tcm_top)
    }

    /// Restores the allocator to a previous mark, freeing everything
    /// allocated since (stack discipline).
    pub fn tcm_release(&mut self, mark: TcmMark) {
        self.tcm_top = mark.0;
    }

    /// Simulation-side helper: reads TCM bytes without charging cost (used
    /// by tests and by host-side staging that is charged separately).
    /// Cost-only contexts hold no TCM data and read zeros.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds TCM.
    #[inline]
    pub fn tcm_peek(&self, addr: TcmAddr, len: usize) -> &[u8] {
        let range = self.assert_in_tcm(addr.0 as usize, len);
        match self.mode {
            ExecMode::Functional => &self.tcm[range],
            ExecMode::CostOnly => &COST_ONLY_TCM[range],
        }
    }

    /// Simulation-side helper: writes TCM bytes without charging cost.
    /// Cost-only contexts hold no TCM data and drop the write.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds TCM.
    #[inline]
    pub fn tcm_poke(&mut self, addr: TcmAddr, bytes: &[u8]) {
        let range = self.assert_in_tcm(addr.0 as usize, bytes.len());
        if self.mode == ExecMode::Functional {
            self.tcm[range].copy_from_slice(bytes);
        }
    }

    // ------------------------------------------------------------------
    // DDR heap and DMA.
    // ------------------------------------------------------------------

    /// Allocates a DDR buffer (zeroed when materialized). In
    /// [`ExecMode::CostOnly`] only the size is tracked.
    ///
    /// While [`NpuContext::set_ddr_staging`] is on, the buffer lands in the
    /// CPU-owned staging region instead of session VA: it consumes no
    /// session space (and cannot fail the VA envelope), but the NPU only
    /// sees its contents after an explicit streamed copy into a
    /// session-resident window.
    pub fn ddr_alloc(&mut self, bytes: u64) -> SimResult<DdrBuffer> {
        let materialize = self.mode == ExecMode::Functional;
        if self.ddr_staging {
            Ok(self.ddr.alloc_staged(bytes, materialize))
        } else {
            self.ddr.alloc(bytes, materialize)
        }
    }

    /// Allocates a DDR buffer initialized with `data` (functional mode) or
    /// of equal size (cost-only mode).
    pub fn ddr_alloc_from(&mut self, data: &[u8]) -> SimResult<DdrBuffer> {
        let buf = self.ddr_alloc(data.len() as u64)?;
        if self.mode == ExecMode::Functional {
            self.ddr.get_mut(buf).data.as_mut().unwrap()[..data.len()].copy_from_slice(data);
        }
        Ok(buf)
    }

    /// Frees a DDR buffer, returning its VA space to the session.
    pub fn ddr_free(&mut self, buf: DdrBuffer) {
        self.ddr.free(buf);
    }

    /// Routes subsequent [`NpuContext::ddr_alloc`] /
    /// [`NpuContext::ddr_alloc_from`] calls to the CPU-owned DDR staging
    /// region (`true`) or back to session VA (`false`). The weight loader
    /// flips this around cold-layer builds so streamed weights never count
    /// against the session envelope.
    pub fn set_ddr_staging(&mut self, staging: bool) {
        self.ddr_staging = staging;
    }

    /// Bytes currently mapped across all session VA spaces.
    pub fn ddr_mapped_bytes(&self) -> u64 {
        self.ddr.mapped_bytes
    }

    /// Bytes currently parked in the CPU-owned DDR staging region.
    pub fn ddr_staged_bytes(&self) -> u64 {
        self.ddr.staged_bytes
    }

    /// Host-side write into DDR (no NPU cost; the host produced the data).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the buffer.
    pub fn ddr_write(&mut self, buf: DdrBuffer, offset: u64, bytes: &[u8]) {
        let state = self.ddr.get_mut(buf);
        assert!(offset + bytes.len() as u64 <= state.size, "ddr_write OOB");
        if let Some(data) = state.data.as_mut() {
            data[offset as usize..offset as usize + bytes.len()].copy_from_slice(bytes);
        }
    }

    /// Host-side read from DDR (no NPU cost). Returns zeros in cost-only
    /// mode.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the buffer.
    pub fn ddr_read(&self, buf: DdrBuffer, offset: u64, len: usize) -> Vec<u8> {
        let state = self.ddr.get(buf);
        assert!(offset + len as u64 <= state.size, "ddr_read OOB");
        match &state.data {
            Some(data) => data[offset as usize..offset as usize + len].to_vec(),
            None => vec![0u8; len],
        }
    }

    /// DMA transfer DDR -> TCM (1D). Charges the DMA engine.
    ///
    /// # Panics
    ///
    /// Panics if either range is out of bounds.
    #[inline]
    pub fn dma_h2t(&mut self, src: DdrBuffer, src_off: u64, dst: TcmAddr, len: u32) {
        self.cost.charge_dma(len as u64);
        let state = self.ddr.get(src);
        assert!(src_off + len as u64 <= state.size, "dma_h2t source OOB");
        let range = self.assert_in_tcm(dst.0 as usize, len as usize);
        // Only functional contexts materialize DDR, and only they hold TCM.
        if let (ExecMode::Functional, Some(data)) = (self.mode, &state.data) {
            self.tcm[range]
                .copy_from_slice(&data[src_off as usize..(src_off + len as u64) as usize]);
        }
    }

    /// DMA transfer TCM -> DDR (1D). Charges the DMA engine.
    ///
    /// # Panics
    ///
    /// Panics if either range is out of bounds.
    #[inline]
    pub fn dma_t2h(&mut self, src: TcmAddr, dst: DdrBuffer, dst_off: u64, len: u32) {
        self.cost.charge_dma(len as u64);
        let range = self.assert_in_tcm(src.0 as usize, len as usize);
        let state = self.ddr.get_mut(dst);
        assert!(
            dst_off + len as u64 <= state.size,
            "dma_t2h destination OOB"
        );
        // Only functional contexts materialize DDR, and only they hold TCM.
        if let (ExecMode::Functional, Some(data)) = (self.mode, state.data.as_mut()) {
            data[dst_off as usize..dst_off as usize + len as usize]
                .copy_from_slice(&self.tcm[range]);
        }
    }

    /// 2D DMA: `rows` rows of `row_bytes` each, with `src_stride` bytes
    /// between DDR row starts, packed densely into TCM. The DMA engine
    /// supports exactly this 1D/2D regular pattern (paper Section 3.1.2).
    #[inline]
    pub fn dma_h2t_2d(
        &mut self,
        src: DdrBuffer,
        src_off: u64,
        src_stride: u64,
        dst: TcmAddr,
        row_bytes: u32,
        rows: u32,
    ) -> SimResult<()> {
        if rows == 0 || row_bytes == 0 {
            return Err(SimError::BadDma {
                reason: "zero-sized 2D transfer".to_string(),
            });
        }
        if src_stride < row_bytes as u64 {
            return Err(SimError::BadDma {
                reason: format!("stride {src_stride} < row width {row_bytes}"),
            });
        }
        for r in 0..rows {
            self.dma_h2t(
                src,
                src_off + r as u64 * src_stride,
                dst.offset(r * row_bytes),
                row_bytes,
            );
        }
        Ok(())
    }

    /// Issues an `l2fetch` prefetch hint for `len` DDR bytes. Charges the
    /// prefetch engine; subsequent core-path loads of the data are modelled
    /// as overlapping within the same phase.
    #[inline]
    pub fn l2fetch(&mut self, len: u64) {
        self.cost.charge_l2fetch(len);
    }

    // ------------------------------------------------------------------
    // Vector memory operations.
    // ------------------------------------------------------------------

    /// Vector load of one 128-byte register from TCM.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds TCM.
    #[inline]
    pub fn vmem_ld_tcm(&mut self, addr: TcmAddr) -> HvxVec {
        self.cost.charge_tcm_bytes(HVX_BYTES as u64);
        let range = self.assert_in_tcm(addr.0 as usize, HVX_BYTES);
        self.lanes(|| HvxVec::from_bytes(&self.tcm[range]))
    }

    /// Vector store of one 128-byte register to TCM.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds TCM.
    #[inline]
    pub fn vmem_st_tcm(&mut self, addr: TcmAddr, v: &HvxVec) {
        self.cost.charge_tcm_bytes(HVX_BYTES as u64);
        self.tcm_poke(addr, &v.0);
    }

    /// Vector load over the slow core path from DDR/L2 (Table 2: 26 GB/s on
    /// V75). Returns zeros in cost-only mode.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the buffer.
    #[inline]
    pub fn vmem_ld_ddr(&mut self, buf: DdrBuffer, offset: u64) -> HvxVec {
        self.cost.charge_hvx_ddr_bytes(HVX_BYTES as u64);
        let bytes = self.ddr_read(buf, offset, HVX_BYTES);
        HvxVec::from_bytes(&bytes)
    }

    /// `vgather`: gathers 64 halfwords from TCM at `base + offset[i]` for
    /// the 64 halfword offsets in `offsets`. Offsets are byte offsets, max
    /// 65535 (the constraint that forces the paper's 64 KiB exp LUT).
    ///
    /// `pipelined` selects the lower-bound packet charge (multiple gathers
    /// in flight), versus the midpoint for a dependent standalone gather.
    ///
    /// # Panics
    ///
    /// Panics if any gathered element is outside TCM.
    #[inline]
    pub fn vgather_h(&mut self, base: TcmAddr, offsets: &HvxVec, pipelined: bool) -> HvxVec {
        self.cost.charge_vgather(pipelined);
        let functional = self.mode == ExecMode::Functional;
        let mut out = HvxVec::zero();
        for i in 0..HVX_HALVES {
            let elem = self.assert_in_tcm(base.0 as usize + offsets.get_h(i) as usize, 2);
            if functional {
                let h = &self.tcm[elem];
                out.set_h(i, u16::from_le_bytes([h[0], h[1]]));
            }
        }
        out
    }

    /// `vscatter`: scatters 64 halfword lanes of `v` to TCM at
    /// `base + offsets[i]`. Costs like a gather (same scatter/gather engine).
    ///
    /// # Panics
    ///
    /// Panics if any scattered element is outside TCM.
    #[inline]
    pub fn vscatter_h(&mut self, base: TcmAddr, offsets: &HvxVec, v: &HvxVec, pipelined: bool) {
        self.cost.charge_vgather(pipelined);
        let functional = self.mode == ExecMode::Functional;
        for i in 0..HVX_HALVES {
            let elem = self.assert_in_tcm(base.0 as usize + offsets.get_h(i) as usize, 2);
            if functional {
                self.tcm[elem].copy_from_slice(&v.get_h(i).to_le_bytes());
            }
        }
    }

    // ------------------------------------------------------------------
    // Vector compute operations (each charges 1 packet unless noted).
    // ------------------------------------------------------------------

    /// Broadcast an FP16 scalar to all 64 half-float lanes.
    #[inline]
    pub fn vsplat_hf(&mut self, v: F16) -> HvxVec {
        self.cost.charge_hvx_packets(1);
        self.lanes(|| HvxVec::splat_h(v.0))
    }

    /// Broadcast a byte to all 128 lanes.
    #[inline]
    pub fn vsplat_b(&mut self, v: u8) -> HvxVec {
        self.cost.charge_hvx_packets(1);
        self.lanes(|| HvxVec::splat_b(v))
    }

    /// Elementwise FP16 add. Pre-V79 the result is in qfloat format; call
    /// [`NpuContext::vconv_qf16`] before storing or bit-reinterpreting.
    #[inline]
    pub fn vadd_hf(&mut self, a: &HvxVec, b: &HvxVec) -> HvxVec {
        self.cost.charge_hvx_packets(1);
        self.lanes(|| hvx::map2_hf_f32(a, b, |x, y| x + y))
    }

    /// Elementwise FP16 subtract (qfloat result pre-V79).
    #[inline]
    pub fn vsub_hf(&mut self, a: &HvxVec, b: &HvxVec) -> HvxVec {
        self.cost.charge_hvx_packets(1);
        self.lanes(|| hvx::map2_hf_f32(a, b, |x, y| x - y))
    }

    /// Elementwise FP16 multiply (qfloat result pre-V79).
    #[inline]
    pub fn vmpy_hf(&mut self, a: &HvxVec, b: &HvxVec) -> HvxVec {
        self.cost.charge_hvx_packets(1);
        self.lanes(|| hvx::map2_hf_f32(a, b, |x, y| x * y))
    }

    /// Elementwise FP16 max (IEEE semantics, NaN loses).
    #[inline]
    pub fn vmax_hf(&mut self, a: &HvxVec, b: &HvxVec) -> HvxVec {
        self.cost.charge_hvx_packets(1);
        self.lanes(|| hvx::map2_hf(a, b, |x, y| x.max(y)))
    }

    /// Converts a qfloat-format register to IEEE FP16. Charges the
    /// conversion instruction on pre-V79 devices and nothing on V79+
    /// (paper Section 5.2.2: the LUT path exists to avoid these).
    #[inline]
    pub fn vconv_qf16(&mut self, v: HvxVec) -> HvxVec {
        let ops = self.device.qf16_convert_ops();
        if ops > 0 {
            self.cost.charge_hvx_packets(ops);
        }
        v
    }

    /// Widens 64 FP16 lanes to an FP32 register pair.
    #[inline]
    pub fn vcvt_hf_sf(&mut self, v: &HvxVec) -> (HvxVec, HvxVec) {
        self.cost.charge_hvx_packets(1);
        self.lanes(|| hvx::vcvt_hf_sf(v))
    }

    /// Narrows an FP32 register pair to 64 FP16 lanes (RTNE).
    #[inline]
    pub fn vcvt_sf_hf(&mut self, lo: &HvxVec, hi: &HvxVec) -> HvxVec {
        self.cost.charge_hvx_packets(1);
        self.lanes(|| hvx::vcvt_sf_hf(lo, hi))
    }

    /// Converts signed 16-bit integer lanes to FP16 (qfloat pre-V79).
    #[inline]
    pub fn vcvt_h_hf(&mut self, v: &HvxVec) -> HvxVec {
        self.cost.charge_hvx_packets(1);
        self.lanes(|| hvx::vcvt_h_hf(v))
    }

    /// Sign-extends byte lanes to halfword lanes (register pair).
    #[inline]
    pub fn vunpack_b_h(&mut self, v: &HvxVec) -> (HvxVec, HvxVec) {
        self.cost.charge_hvx_packets(1);
        self.lanes(|| hvx::vunpack_b_h(v))
    }

    /// Zero-extends byte lanes to halfword lanes (register pair).
    #[inline]
    pub fn vunpack_ub_h(&mut self, v: &HvxVec) -> (HvxVec, HvxVec) {
        self.cost.charge_hvx_packets(1);
        self.lanes(|| hvx::vunpack_ub_h(v))
    }

    /// Bitwise AND of byte lanes.
    #[inline]
    pub fn vand_b(&mut self, a: &HvxVec, b: &HvxVec) -> HvxVec {
        self.cost.charge_hvx_packets(1);
        self.lanes(|| hvx::map2_b(a, b, |x, y| x & y))
    }

    /// Logical shift right of byte lanes.
    #[inline]
    pub fn vshr_b(&mut self, v: &HvxVec, n: u32) -> HvxVec {
        self.cost.charge_hvx_packets(1);
        self.lanes(|| hvx::vshr_b(v, n))
    }

    /// Logical shift right of halfword lanes.
    #[inline]
    pub fn vshr_h(&mut self, v: &HvxVec, n: u32) -> HvxVec {
        self.cost.charge_hvx_packets(1);
        self.lanes(|| hvx::vshr_h(v, n))
    }

    /// Logical shift left of halfword lanes.
    #[inline]
    pub fn vshl_h(&mut self, v: &HvxVec, n: u32) -> HvxVec {
        self.cost.charge_hvx_packets(1);
        self.lanes(|| hvx::vshl_h(v, n))
    }

    /// Interleaves halfword lanes of two registers (cross-lane shuffle used
    /// for the HMX two-row layout, paper Figure 4a).
    #[inline]
    pub fn vshuff_h(&mut self, a: &HvxVec, b: &HvxVec) -> (HvxVec, HvxVec) {
        self.cost.charge_hvx_packets(1);
        self.lanes(|| hvx::vshuff_h(a, b))
    }

    /// Deinterleaves halfword lanes (inverse of [`NpuContext::vshuff_h`]).
    #[inline]
    pub fn vdeal_h(&mut self, lo: &HvxVec, hi: &HvxVec) -> (HvxVec, HvxVec) {
        self.cost.charge_hvx_packets(1);
        self.lanes(|| hvx::vdeal_h(lo, hi))
    }

    /// `vlut16` with an FP16 table: 128 byte indices -> 128 FP16 lanes as a
    /// register pair. One instruction (paper Figure 9) and the results are
    /// IEEE FP16 directly — no qfloat conversion needed.
    #[inline]
    pub fn vlut16_hf(&mut self, idx: &HvxVec, table: &[F16; 16]) -> (HvxVec, HvxVec) {
        self.cost.charge_vlut16();
        self.lanes(|| {
            let raw: [u16; 16] = std::array::from_fn(|i| table[i].0);
            hvx::vlut16(idx, &raw)
        })
    }

    /// Charges explicit pipeline-stall cycles (used to model the sequential
    /// dependency chains of polynomial evaluation under VLIW, Section 5.2.1).
    #[inline]
    pub fn stall(&mut self, cycles: u64) {
        self.cost.charge_hvx_packets(cycles);
    }

    // ------------------------------------------------------------------
    // HMX operations.
    // ------------------------------------------------------------------

    /// HMX tile multiply-accumulate: reads a 32x32 FP16 activation tile and
    /// weight tile (both in interleaved layout, both in TCM) and accumulates
    /// `act x wgt` into `acc`. Charges one tile-op.
    ///
    /// # Panics
    ///
    /// Panics if a tile range exceeds TCM or is not 2-byte aligned.
    #[inline]
    pub fn hmx_matmul(&mut self, acc: &mut HmxAccumulator, act: TcmAddr, wgt: TcmAddr) {
        self.cost.charge_hmx_tile_ops(1);
        assert!(
            act.0.is_multiple_of(2) && wgt.0.is_multiple_of(2),
            "tiles must be aligned"
        );
        let act = self.tcm_peek(act, TILE_BYTES);
        let wgt = self.tcm_peek(wgt, TILE_BYTES);
        if self.mode == ExecMode::Functional {
            acc.mac_f32(&hmx::unpack_tile_f32(act), &hmx::unpack_tile_f32(wgt));
        }
    }

    /// Shape-level HMX charge: `n` tile-ops without data movement. Used by
    /// kernels inside [`NpuContext::replay`] blocks where the MAC work is
    /// proportional to a dimension that the block does not iterate.
    #[inline]
    pub fn hmx_charge(&mut self, tile_ops: u64) {
        self.cost.charge_hmx_tile_ops(tile_ops);
    }

    /// Writes the accumulator to TCM as an interleaved FP16 tile, applying
    /// optional per-column scale/bias (HMX writeback path).
    ///
    /// # Panics
    ///
    /// Panics if the output range exceeds TCM.
    #[inline]
    pub fn hmx_store_acc(
        &mut self,
        acc: &HmxAccumulator,
        out: TcmAddr,
        scale: Option<&[f32; TILE_DIM]>,
        bias: Option<&[f32; TILE_DIM]>,
    ) {
        // Writeback is part of the tile-op pipeline; charge token cost.
        self.cost.charge_hmx_tile_ops(0);
        match self.mode {
            ExecMode::Functional => {
                let tile = acc.to_tile(scale, bias);
                self.tcm_poke(out, &hmx::pack_tile(&tile));
            }
            ExecMode::CostOnly => {
                self.assert_in_tcm(out.0 as usize, TILE_BYTES);
            }
        }
    }

    // ------------------------------------------------------------------
    // Phases and replay.
    // ------------------------------------------------------------------

    /// Runs `f` as one named cost phase and returns its breakdown: what
    /// [`CostModel::delta_since`] reads against a snapshot taken before
    /// `f`.
    pub fn phase<R>(
        &mut self,
        label: &'static str,
        f: impl FnOnce(&mut Self) -> R,
    ) -> (R, PhaseCost) {
        let snap = self.cost.snapshot();
        let r = f(self);
        (r, self.cost.delta_since(&snap, label))
    }

    /// Executes `f` once and scales its cost by `times` in cost-only mode,
    /// or executes it `times` times in functional mode.
    ///
    /// The closure must be cost-deterministic (identical charges on every
    /// invocation) — true for the data-independent kernels in this project.
    pub fn replay(&mut self, times: u64, mut f: impl FnMut(&mut Self)) {
        self.replay_indexed(times, |ctx, _| f(ctx));
    }

    /// Like [`NpuContext::replay`] but passes the block index to the
    /// closure. Functional mode iterates `0..times`; cost-only mode executes
    /// block 0 once and multiplies the cost delta.
    pub fn replay_indexed(&mut self, times: u64, mut f: impl FnMut(&mut Self, u64)) {
        if times == 0 {
            return;
        }
        match self.mode {
            ExecMode::Functional => {
                for i in 0..times {
                    f(self, i);
                }
            }
            ExecMode::CostOnly => {
                let snap = self.cost.snapshot();
                f(self, 0);
                self.cost.scale_since(&snap, times);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Engine;

    fn ctx() -> NpuContext {
        NpuContext::new(DeviceProfile::v75(), ExecMode::Functional)
    }

    #[test]
    fn tcm_alloc_alignment_and_exhaustion() {
        let mut c = ctx();
        let a = c.tcm_alloc(100, 1).unwrap();
        assert_eq!(a, TcmAddr(0));
        let b = c.tcm_alloc(64, 128).unwrap();
        assert_eq!(b.0 % 128, 0);
        let err = c.tcm_alloc(9 * 1024 * 1024, 1).unwrap_err();
        assert!(matches!(err, SimError::TcmExhausted { .. }));
    }

    #[test]
    fn tcm_alloc_that_would_wrap_u32_fails_without_moving_the_allocator() {
        let mut c = ctx();
        c.tcm_alloc(100, 1).unwrap();
        // `base + bytes` overflows u32.
        let err = c.tcm_alloc(u32::MAX - 50, 1).unwrap_err();
        assert!(matches!(err, SimError::TcmExhausted { .. }));
        assert_eq!(c.tcm_top, 100);
        // A base aligned up to near u32::MAX overflows on adding `bytes`.
        let err = c.tcm_alloc(20, u32::MAX - 10).unwrap_err();
        assert!(matches!(err, SimError::TcmExhausted { .. }));
        assert_eq!(c.tcm_top, 100);
        assert_eq!(c.tcm_alloc(28, 128).unwrap(), TcmAddr(128));
    }

    #[test]
    fn half_float_lane_ops_equal_per_lane_f16_arithmetic() {
        // Random registers whose lanes mix arbitrary bit patterns with NaN,
        // ±Inf, subnormals and ±0.
        const SPECIAL: [u16; 8] = [
            0x7e00, 0xfd01, 0x7c00, 0xfc00, 0x0001, 0x83ff, 0x0000, 0x8000,
        ];
        let mut state = 0x9e37_79b9u32;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            state
        };
        let mut register = || {
            let mut v = HvxVec::zero();
            for lane in 0..HVX_HALVES {
                let r = next();
                let bits = match r % 4 {
                    0 => SPECIAL[(r >> 8) as usize % SPECIAL.len()],
                    _ => (r >> 16) as u16,
                };
                v.set_h(lane, bits);
            }
            v
        };
        // Rust leaves the sign of a NaN result open when both operands are
        // NaN (codegen may return either one), so NaN lanes compare as NaN.
        let nan_blind = |v: &HvxVec| hvx::map_hf(v, |h| if h.is_nan() { F16::NAN } else { h });
        type LaneOp = fn(&mut NpuContext, &HvxVec, &HvxVec) -> HvxVec;
        type PerLane = fn(F16, F16) -> F16;
        let ops: [(LaneOp, PerLane); 3] = [
            (NpuContext::vadd_hf, F16::add),
            (NpuContext::vsub_hf, F16::sub),
            (NpuContext::vmpy_hf, F16::mul),
        ];
        let mut c = ctx();
        for _ in 0..64 {
            let (a, b) = (register(), register());
            for (lanes, per_lane) in ops {
                let got = lanes(&mut c, &a, &b);
                assert_eq!(nan_blind(&got), nan_blind(&hvx::map2_hf(&a, &b, per_lane)));
            }
        }
    }

    #[test]
    fn tcm_mark_release() {
        let mut c = ctx();
        let _keep = c.tcm_alloc(256, 1).unwrap();
        let mark = c.tcm_mark();
        c.tcm_alloc(1024, 1).unwrap();
        assert_eq!(c.tcm_top, 256 + 1024);
        c.tcm_release(mark);
        assert_eq!(c.tcm_top, 256);
    }

    #[test]
    fn dma_moves_bytes_and_charges() {
        let mut c = ctx();
        let buf = c.ddr_alloc_from(&[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        let t = c.tcm_alloc(8, 8).unwrap();
        c.dma_h2t(buf, 0, t, 8);
        assert_eq!(c.tcm_peek(t, 8), &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(c.cost.counters().dma_bytes, 8);
        // Round trip back to DDR.
        let out = c.ddr_alloc(8).unwrap();
        c.dma_t2h(t, out, 0, 8);
        assert_eq!(c.ddr_read(out, 0, 8), vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn dma_2d_packs_rows() {
        let mut c = ctx();
        // DDR layout: two rows of 4 bytes at stride 8.
        let mut src = vec![0u8; 16];
        src[0..4].copy_from_slice(&[1, 2, 3, 4]);
        src[8..12].copy_from_slice(&[5, 6, 7, 8]);
        let buf = c.ddr_alloc_from(&src).unwrap();
        let t = c.tcm_alloc(8, 8).unwrap();
        c.dma_h2t_2d(buf, 0, 8, t, 4, 2).unwrap();
        assert_eq!(c.tcm_peek(t, 8), &[1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn dma_2d_rejects_bad_stride() {
        let mut c = ctx();
        let buf = c.ddr_alloc(64).unwrap();
        let t = c.tcm_alloc(64, 8).unwrap();
        let err = c.dma_h2t_2d(buf, 0, 2, t, 4, 2).unwrap_err();
        assert!(matches!(err, SimError::BadDma { .. }));
    }

    /// A context with one live buffer, and three handles that name no
    /// buffer in it: a freed one, 0, and the next one it would issue.
    fn dead_handles() -> (NpuContext, [DdrBuffer; 3]) {
        let mut c = ctx();
        let freed = c.ddr_alloc(64).unwrap();
        let live = c.ddr_alloc(64).unwrap();
        c.ddr_free(freed);
        (c, [freed, DdrBuffer(0), DdrBuffer(live.0 + 1)])
    }

    /// A 64-byte DMA into TCM from handle `which` of [`dead_handles`].
    fn dma_from_dead(which: usize) {
        let (mut c, dead) = dead_handles();
        let t = c.tcm_alloc(64, 8).unwrap();
        c.dma_h2t(dead[which], 0, t, 64);
    }

    #[test]
    #[should_panic(expected = "use of freed or foreign DdrBuffer")]
    fn dma_from_a_freed_buffer_panics() {
        dma_from_dead(0);
    }

    #[test]
    #[should_panic(expected = "use of freed or foreign DdrBuffer")]
    fn dma_from_handle_zero_panics() {
        dma_from_dead(1);
    }

    #[test]
    #[should_panic(expected = "use of freed or foreign DdrBuffer")]
    fn dma_from_a_never_issued_handle_panics() {
        dma_from_dead(2);
    }

    #[test]
    #[should_panic(expected = "use of freed or foreign DdrBuffer")]
    fn reading_a_freed_buffer_panics() {
        let (c, [freed, _, _]) = dead_handles();
        c.ddr_read(freed, 0, 4);
    }

    #[test]
    #[should_panic(expected = "use of freed or foreign DdrBuffer")]
    fn reading_handle_zero_panics() {
        let (c, [_, zero, _]) = dead_handles();
        c.ddr_read(zero, 0, 4);
    }

    #[test]
    #[should_panic(expected = "use of freed or foreign DdrBuffer")]
    fn reading_a_never_issued_handle_panics() {
        let (c, _) = dead_handles();
        c.ddr_read(DdrBuffer(u64::MAX), 0, 4);
    }

    #[test]
    fn vector_tcm_roundtrip() {
        let mut c = ctx();
        let t = c.tcm_alloc(128, 128).unwrap();
        let v = HvxVec::splat_h(0xABCD);
        c.vmem_st_tcm(t, &v);
        let back = c.vmem_ld_tcm(t);
        assert_eq!(v, back);
        assert_eq!(c.cost.counters().tcm_bytes, 256);
    }

    #[test]
    fn cost_only_lane_ops_charge_without_computing() {
        // One instruction sequence in both modes: identical charges, but
        // only functional mode computes lanes and writes TCM.
        let run = |mode| {
            let mut c = NpuContext::new(DeviceProfile::v75(), mode);
            let t = c.tcm_alloc(128, 128).unwrap();
            let one = c.vsplat_hf(F16::ONE);
            let two = c.vadd_hf(&one, &one);
            c.vmem_st_tcm(t, &two);
            let back = c.vmem_ld_tcm(t);
            (charges(&c), back, c.tcm_peek(t, HVX_BYTES).to_vec())
        };
        let (functional, back, tcm) = run(ExecMode::Functional);
        assert_eq!(back, HvxVec::splat_h(F16::from_f32(2.0).0));
        assert_eq!(tcm, back.0.to_vec());
        let (cost_only, back, tcm) = run(ExecMode::CostOnly);
        assert_eq!(cost_only, functional);
        assert_eq!(back, HvxVec::zero());
        assert!(tcm.iter().all(|&b| b == 0), "cost-only mode wrote TCM");
    }

    #[test]
    #[should_panic(expected = "outside TCM")]
    fn cost_only_load_past_the_end_of_tcm_panics() {
        let mut c = NpuContext::new(DeviceProfile::v75(), ExecMode::CostOnly);
        let last = c.device().tcm_bytes - HVX_BYTES as u32 / 2;
        c.vmem_ld_tcm(TcmAddr(last));
    }

    #[test]
    fn vgather_collects_offsets() {
        let mut c = ctx();
        let t = c.tcm_alloc(1024, 128).unwrap();
        for i in 0..512u32 {
            let val = (i as u16).to_le_bytes();
            c.tcm_poke(t.offset(i * 2), &val);
        }
        let mut offs = HvxVec::zero();
        for i in 0..HVX_HALVES {
            offs.set_h(i, (i as u16) * 4); // Every other halfword.
        }
        let v = c.vgather_h(t, &offs, true);
        for i in 0..HVX_HALVES {
            assert_eq!(v.get_h(i), (i as u16) * 2);
        }
        assert_eq!(c.cost.counters().vgathers, 1);
    }

    #[test]
    fn vscatter_then_gather_roundtrip() {
        let mut c = ctx();
        let t = c.tcm_alloc(4096, 128).unwrap();
        let mut offs = HvxVec::zero();
        for i in 0..HVX_HALVES {
            offs.set_h(i, (i as u16) * 64);
        }
        let mut vals = HvxVec::zero();
        for i in 0..HVX_HALVES {
            vals.set_h(i, 0x100 + i as u16);
        }
        c.vscatter_h(t, &offs, &vals, false);
        let back = c.vgather_h(t, &offs, false);
        assert_eq!(vals, back);
    }

    #[test]
    fn hmx_matmul_identity() {
        let mut c = ctx();
        let act = c.tcm_alloc(TILE_BYTES as u32, 2048).unwrap();
        let wgt = c.tcm_alloc(TILE_BYTES as u32, 2048).unwrap();
        let out = c.tcm_alloc(TILE_BYTES as u32, 2048).unwrap();
        // Activation: arbitrary; weight: identity.
        let mut a = [[F16::ZERO; TILE_DIM]; TILE_DIM];
        let mut w = [[F16::ZERO; TILE_DIM]; TILE_DIM];
        for (i, row) in a.iter_mut().enumerate() {
            w[i][i] = F16::ONE;
            for (j, v) in row.iter_mut().enumerate() {
                *v = F16::from_f32(((i * 31 + j * 17) % 11) as f32 - 5.0);
            }
        }
        let ab = hmx::pack_tile(&a);
        let wb = hmx::pack_tile(&w);
        c.tcm_poke(act, &ab);
        c.tcm_poke(wgt, &wb);
        let mut acc = HmxAccumulator::new();
        c.hmx_matmul(&mut acc, act, wgt);
        c.hmx_store_acc(&acc, out, None, None);
        let result = hmx::unpack_tile(c.tcm_peek(out, TILE_BYTES));
        for i in 0..TILE_DIM {
            for j in 0..TILE_DIM {
                assert_eq!(result[i][j], a[i][j], "({i},{j})");
            }
        }
        assert_eq!(c.cost.counters().hmx_tile_ops, 1);
    }

    #[test]
    fn replay_scales_cost_only() {
        let mut c = NpuContext::new(DeviceProfile::v75(), ExecMode::CostOnly);
        c.replay(10, |c| {
            c.cost.charge_hvx_packets(5);
        });
        assert_eq!(c.cost.counters().hvx_instructions, 50);

        let mut f = ctx();
        let mut runs = 0;
        f.replay(10, |c| {
            runs += 1;
            c.cost.charge_hvx_packets(5);
        });
        assert_eq!(runs, 10);
        assert_eq!(f.cost.counters().hvx_instructions, 50);
    }

    #[test]
    fn cost_only_ddr_is_shape_only() {
        let mut c = NpuContext::new(DeviceProfile::v75(), ExecMode::CostOnly);
        // 3 GiB fits in the V75 session VA without materializing memory.
        let buf = c.ddr_alloc(3 * 1024 * 1024 * 1024).unwrap();
        assert_eq!(c.ddr_read(buf, 0, 4), vec![0, 0, 0, 0]);
        let t = c.tcm_alloc(128, 128).unwrap();
        c.dma_h2t(buf, 1 << 30, t, 128);
        assert_eq!(c.cost.counters().dma_bytes, 128);
    }

    #[test]
    fn va_limit_blocks_large_models_on_v73() {
        let mut c = NpuContext::new(DeviceProfile::v73(), ExecMode::CostOnly);
        // A 3B-parameter Q4 model is ~1.7 GiB of weights plus KV; two of
        // these mappings exceed the 2 GiB session space.
        c.ddr_alloc(1_700_000_000).unwrap();
        let err = c.ddr_alloc(1_000_000_000).unwrap_err();
        assert!(matches!(err, SimError::VaSpaceExceeded { .. }));
    }

    #[test]
    fn sharded_context_spills_into_a_second_session() {
        // The same pair of mappings that overflows one V73 session maps
        // fine on a two-session context (paper Section 8).
        let mut c = NpuContext::new_sharded(DeviceProfile::v73(), ExecMode::CostOnly, 2);
        c.ddr_alloc(1_700_000_000).unwrap();
        c.ddr_alloc(1_000_000_000).unwrap();
        // The cap still holds: a third large mapping has nowhere to go.
        let err = c.ddr_alloc(1_500_000_000).unwrap_err();
        assert!(matches!(err, SimError::VaSpaceExceeded { .. }));
    }

    #[test]
    fn staging_toggle_routes_allocations_outside_session_va() {
        let mut c = NpuContext::new(DeviceProfile::v73(), ExecMode::CostOnly);
        c.ddr_alloc(1_700_000_000).unwrap();
        // The same second mapping that overflows the session above maps
        // fine as staging, and the functional data path still works.
        c.set_ddr_staging(true);
        let staged = c.ddr_alloc(1_000_000_000).unwrap();
        c.set_ddr_staging(false);
        assert_eq!(c.ddr_staged_bytes(), 1_000_000_000);
        assert_eq!(c.ddr_mapped_bytes(), 1_700_000_000);
        c.ddr_free(staged);
        assert_eq!(c.ddr_staged_bytes(), 0);

        let mut f = ctx();
        f.set_ddr_staging(true);
        let buf = f.ddr_alloc_from(&[9, 8, 7, 6]).unwrap();
        f.set_ddr_staging(false);
        assert_eq!(f.ddr_read(buf, 0, 4), vec![9, 8, 7, 6]);
        assert_eq!(f.ddr_mapped_bytes(), 0);
    }

    #[test]
    fn qf16_conversion_free_on_v79() {
        let mut c75 = ctx();
        let v = HvxVec::splat_h(0x3c00);
        let _ = c75.vconv_qf16(v);
        assert_eq!(c75.cost.counters().hvx_instructions, 1);

        let mut c79 = NpuContext::new(DeviceProfile::v79(), ExecMode::Functional);
        let _ = c79.vconv_qf16(v);
        assert_eq!(c79.cost.counters().hvx_instructions, 0);
    }

    #[test]
    fn phase_helper_records_breakdown() {
        let mut c = ctx();
        let (_, p) = c.phase("load", |c| {
            c.cost.charge_dma(60_000); // 1 us at 60 GB/s.
        });
        assert_eq!(p.label, "load");
        assert!((p.engine(Engine::Dma) - 1e-6).abs() < 1e-12);
        assert_eq!(p.wall_secs, p.engine(Engine::Dma));
    }

    fn charges(c: &NpuContext) -> ([u64; crate::cost::NUM_ENGINES], crate::cost::Counters) {
        (
            Engine::ALL.map(|e| c.cost.engine_secs(e).to_bits()),
            *c.cost.counters(),
        )
    }

    #[test]
    fn charge_only_charges_without_computing_and_restores_the_mode() {
        // One sequence, run directly in a cost-only context and under
        // `charge_only` in a functional one whose DDR holds data.
        fn sequence(c: &mut NpuContext, buf: DdrBuffer, t: TcmAddr) -> HvxVec {
            c.dma_h2t(buf, 0, t, 128);
            let v = c.vmem_ld_tcm(t);
            let two = c.vadd_hf(&v, &v);
            c.vmem_st_tcm(t.offset(128), &two);
            c.replay(3, |c| c.stall(2));
            two
        }
        let setup = |mode| {
            let mut c = NpuContext::new(DeviceProfile::v75(), mode);
            let buf = c.ddr_alloc_from(&[0x3c; 128]).unwrap();
            let t = c.tcm_alloc(256, 128).unwrap();
            (c, buf, t)
        };
        let (mut cost_only, buf, t) = setup(ExecMode::CostOnly);
        sequence(&mut cost_only, buf, t);
        let (mut f, buf, t) = setup(ExecMode::Functional);
        let two = f.charge_only(|c| sequence(c, buf, t));
        assert_eq!(f.mode, ExecMode::Functional);
        assert_eq!(two, HvxVec::zero());
        assert!(
            f.tcm_peek(t, 256).iter().all(|&b| b == 0),
            "charge_only moved DMA bytes or stored lanes"
        );
        assert_eq!(charges(&f), charges(&cost_only));
        // The functional datapath is back: the same DMA now moves bytes.
        f.dma_h2t(buf, 0, t, 128);
        assert_eq!(f.tcm_peek(t, 128), &[0x3c; 128]);
    }

    /// `#[should_panic(expected = "outside TCM")]` tests, one per access
    /// and mode: each access's TCM range ends past `u32::MAX`, which a `u32`
    /// bounds check would wrap back into TCM.
    macro_rules! tcm_range_wrapping_u32_panics {
        ($($name:ident: $mode:ident, $access:expr;)*) => {$(
            #[test]
            #[should_panic(expected = "outside TCM")]
            fn $name() {
                let mut c = NpuContext::new(DeviceProfile::v75(), ExecMode::$mode);
                let buf = c.ddr_alloc(256).unwrap();
                let access: fn(&mut NpuContext, DdrBuffer) = $access;
                access(&mut c, buf);
            }
        )*};
    }

    const WRAP_DMA: TcmAddr = TcmAddr(u32::MAX - 63);
    const WRAP_HALF: TcmAddr = TcmAddr(u32::MAX - 1);

    tcm_range_wrapping_u32_panics! {
        dma_h2t_wrapping_u32_panics_functional: Functional,
            |c, buf| c.dma_h2t(buf, 0, WRAP_DMA, 128);
        dma_h2t_wrapping_u32_panics_cost_only: CostOnly,
            |c, buf| c.dma_h2t(buf, 0, WRAP_DMA, 128);
        dma_t2h_wrapping_u32_panics_functional: Functional,
            |c, buf| c.dma_t2h(WRAP_DMA, buf, 0, 128);
        dma_t2h_wrapping_u32_panics_cost_only: CostOnly,
            |c, buf| c.dma_t2h(WRAP_DMA, buf, 0, 128);
        vgather_h_wrapping_u32_panics_functional: Functional,
            |c, _| { c.vgather_h(WRAP_HALF, &HvxVec::zero(), true); };
        vgather_h_wrapping_u32_panics_cost_only: CostOnly,
            |c, _| { c.vgather_h(WRAP_HALF, &HvxVec::zero(), true); };
        vscatter_h_wrapping_u32_panics_functional: Functional,
            |c, _| c.vscatter_h(WRAP_HALF, &HvxVec::zero(), &HvxVec::zero(), true);
        vscatter_h_wrapping_u32_panics_cost_only: CostOnly,
            |c, _| c.vscatter_h(WRAP_HALF, &HvxVec::zero(), &HvxVec::zero(), true);
    }
}
