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

    /// The bounds check of a TCM access, which cost-only mode keeps even
    /// though it moves no bytes.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds TCM.
    fn assert_in_tcm(&self, addr: TcmAddr, len: usize) {
        assert!(
            addr.0 as usize + len <= self.device.tcm_bytes as usize,
            "TCM range {:#x}+{len} outside TCM",
            addr.0
        );
    }

    // ------------------------------------------------------------------
    // TCM management.
    // ------------------------------------------------------------------

    /// Allocates `bytes` of TCM with the given alignment (bump allocator).
    pub fn tcm_alloc(&mut self, bytes: u32, align: u32) -> SimResult<TcmAddr> {
        let align = align.max(1);
        let base = self.tcm_top.div_ceil(align) * align;
        if base + bytes > self.device.tcm_bytes {
            return Err(SimError::TcmExhausted {
                capacity: self.device.tcm_bytes,
                requested: bytes,
            });
        }
        self.tcm_top = base + bytes;
        Ok(TcmAddr(base))
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

    /// Bytes of TCM currently allocated.
    pub fn tcm_used(&self) -> u32 {
        self.tcm_top
    }

    /// Simulation-side helper: reads TCM bytes without charging cost (used
    /// by tests and by host-side staging that is charged separately).
    /// Cost-only contexts hold no TCM data and read zeros.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds TCM.
    pub fn tcm_peek(&self, addr: TcmAddr, len: usize) -> &[u8] {
        let range = addr.0 as usize..addr.0 as usize + len;
        match self.mode {
            ExecMode::Functional => &self.tcm[range],
            ExecMode::CostOnly => {
                self.assert_in_tcm(addr, len);
                &COST_ONLY_TCM[range]
            }
        }
    }

    /// Simulation-side helper: writes TCM bytes without charging cost.
    /// Cost-only contexts hold no TCM data and drop the write.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds TCM.
    pub fn tcm_poke(&mut self, addr: TcmAddr, bytes: &[u8]) {
        match self.mode {
            ExecMode::Functional => {
                self.tcm[addr.0 as usize..addr.0 as usize + bytes.len()].copy_from_slice(bytes)
            }
            ExecMode::CostOnly => self.assert_in_tcm(addr, bytes.len()),
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

    /// Number of NPU sessions currently open (1 unless the context was
    /// created with [`NpuContext::new_sharded`] and an allocation spilled
    /// past the first session's VA space).
    pub fn ddr_sessions(&self) -> usize {
        self.ddr.sessions()
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
    pub fn dma_h2t(&mut self, src: DdrBuffer, src_off: u64, dst: TcmAddr, len: u32) {
        self.cost.charge_dma(len as u64);
        let state = self.ddr.get(src);
        assert!(src_off + len as u64 <= state.size, "dma_h2t source OOB");
        assert!(
            dst.0 + len <= self.device.tcm_bytes,
            "dma_h2t destination OOB"
        );
        if let Some(data) = &state.data {
            let src_slice = data[src_off as usize..(src_off + len as u64) as usize].to_vec();
            self.tcm[dst.0 as usize..(dst.0 + len) as usize].copy_from_slice(&src_slice);
        }
    }

    /// DMA transfer TCM -> DDR (1D). Charges the DMA engine.
    ///
    /// # Panics
    ///
    /// Panics if either range is out of bounds.
    pub fn dma_t2h(&mut self, src: TcmAddr, dst: DdrBuffer, dst_off: u64, len: u32) {
        self.cost.charge_dma(len as u64);
        assert!(src.0 + len <= self.device.tcm_bytes, "dma_t2h source OOB");
        let state = self.ddr.get_mut(dst);
        assert!(
            dst_off + len as u64 <= state.size,
            "dma_t2h destination OOB"
        );
        // Only functional contexts materialize DDR, and only they hold TCM.
        if let Some(data) = state.data.as_mut() {
            data[dst_off as usize..dst_off as usize + len as usize]
                .copy_from_slice(&self.tcm[src.0 as usize..(src.0 + len) as usize]);
        }
    }

    /// 2D DMA: `rows` rows of `row_bytes` each, with `src_stride` bytes
    /// between DDR row starts, packed densely into TCM. The DMA engine
    /// supports exactly this 1D/2D regular pattern (paper Section 3.1.2).
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
    pub fn vmem_ld_tcm(&mut self, addr: TcmAddr) -> HvxVec {
        self.cost.charge_tcm_bytes(HVX_BYTES as u64);
        match self.mode {
            ExecMode::Functional => HvxVec::from_bytes(self.tcm_peek(addr, HVX_BYTES)),
            ExecMode::CostOnly => {
                self.assert_in_tcm(addr, HVX_BYTES);
                HvxVec::zero()
            }
        }
    }

    /// Vector store of one 128-byte register to TCM.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds TCM.
    pub fn vmem_st_tcm(&mut self, addr: TcmAddr, v: &HvxVec) {
        self.cost.charge_tcm_bytes(HVX_BYTES as u64);
        match self.mode {
            ExecMode::Functional => self.tcm_poke(addr, &v.0),
            ExecMode::CostOnly => self.assert_in_tcm(addr, HVX_BYTES),
        }
    }

    /// Vector load over the slow core path from DDR/L2 (Table 2: 26 GB/s on
    /// V75). Returns zeros in cost-only mode.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the buffer.
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
    pub fn vgather_h(&mut self, base: TcmAddr, offsets: &HvxVec, pipelined: bool) -> HvxVec {
        self.cost.charge_vgather(pipelined);
        let functional = self.mode == ExecMode::Functional;
        let mut out = HvxVec::zero();
        for i in 0..HVX_HALVES {
            let off = offsets.get_h(i) as u32;
            let addr = base.0 + off;
            assert!(
                addr + 2 <= self.device.tcm_bytes,
                "vgather element outside TCM"
            );
            if functional {
                let lo = self.tcm[addr as usize];
                let hi = self.tcm[addr as usize + 1];
                out.set_h(i, u16::from_le_bytes([lo, hi]));
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
    pub fn vscatter_h(&mut self, base: TcmAddr, offsets: &HvxVec, v: &HvxVec, pipelined: bool) {
        self.cost.charge_vgather(pipelined);
        let functional = self.mode == ExecMode::Functional;
        for i in 0..HVX_HALVES {
            let off = offsets.get_h(i) as u32;
            let addr = base.0 + off;
            assert!(
                addr + 2 <= self.device.tcm_bytes,
                "vscatter element outside TCM"
            );
            if functional {
                let bytes = v.get_h(i).to_le_bytes();
                self.tcm[addr as usize] = bytes[0];
                self.tcm[addr as usize + 1] = bytes[1];
            }
        }
    }

    // ------------------------------------------------------------------
    // Vector compute operations (each charges 1 packet unless noted).
    // ------------------------------------------------------------------

    /// Broadcast an FP16 scalar to all 64 half-float lanes.
    pub fn vsplat_hf(&mut self, v: F16) -> HvxVec {
        self.cost.charge_hvx_packets(1);
        self.lanes(|| HvxVec::splat_h(v.0))
    }

    /// Broadcast a byte to all 128 lanes.
    pub fn vsplat_b(&mut self, v: u8) -> HvxVec {
        self.cost.charge_hvx_packets(1);
        self.lanes(|| HvxVec::splat_b(v))
    }

    /// Elementwise FP16 add. Pre-V79 the result is in qfloat format; call
    /// [`NpuContext::vconv_qf16`] before storing or bit-reinterpreting.
    pub fn vadd_hf(&mut self, a: &HvxVec, b: &HvxVec) -> HvxVec {
        self.cost.charge_hvx_packets(1);
        self.lanes(|| hvx::map2_hf(a, b, |x, y| x.add(y)))
    }

    /// Elementwise FP16 subtract (qfloat result pre-V79).
    pub fn vsub_hf(&mut self, a: &HvxVec, b: &HvxVec) -> HvxVec {
        self.cost.charge_hvx_packets(1);
        self.lanes(|| hvx::map2_hf(a, b, |x, y| x.sub(y)))
    }

    /// Elementwise FP16 multiply (qfloat result pre-V79).
    pub fn vmpy_hf(&mut self, a: &HvxVec, b: &HvxVec) -> HvxVec {
        self.cost.charge_hvx_packets(1);
        self.lanes(|| hvx::map2_hf(a, b, |x, y| x.mul(y)))
    }

    /// Elementwise FP16 max (IEEE semantics, NaN loses).
    pub fn vmax_hf(&mut self, a: &HvxVec, b: &HvxVec) -> HvxVec {
        self.cost.charge_hvx_packets(1);
        self.lanes(|| hvx::map2_hf(a, b, |x, y| x.max(y)))
    }

    /// Elementwise FP16 min.
    pub fn vmin_hf(&mut self, a: &HvxVec, b: &HvxVec) -> HvxVec {
        self.cost.charge_hvx_packets(1);
        self.lanes(|| hvx::map2_hf(a, b, |x, y| x.min(y)))
    }

    /// Converts a qfloat-format register to IEEE FP16. Charges the
    /// conversion instruction on pre-V79 devices and nothing on V79+
    /// (paper Section 5.2.2: the LUT path exists to avoid these).
    pub fn vconv_qf16(&mut self, v: HvxVec) -> HvxVec {
        let ops = self.device.qf16_convert_ops();
        if ops > 0 {
            self.cost.charge_hvx_packets(ops);
        }
        v
    }

    /// Elementwise FP32 add over 32 word lanes.
    pub fn vadd_sf(&mut self, a: &HvxVec, b: &HvxVec) -> HvxVec {
        self.cost.charge_hvx_packets(1);
        self.lanes(|| hvx::map2_sf(a, b, |x, y| x + y))
    }

    /// Elementwise FP32 multiply over 32 word lanes.
    pub fn vmpy_sf(&mut self, a: &HvxVec, b: &HvxVec) -> HvxVec {
        self.cost.charge_hvx_packets(1);
        self.lanes(|| hvx::map2_sf(a, b, |x, y| x * y))
    }

    /// Widens 64 FP16 lanes to an FP32 register pair.
    pub fn vcvt_hf_sf(&mut self, v: &HvxVec) -> (HvxVec, HvxVec) {
        self.cost.charge_hvx_packets(1);
        self.lanes(|| hvx::vcvt_hf_sf(v))
    }

    /// Narrows an FP32 register pair to 64 FP16 lanes (RTNE).
    pub fn vcvt_sf_hf(&mut self, lo: &HvxVec, hi: &HvxVec) -> HvxVec {
        self.cost.charge_hvx_packets(1);
        self.lanes(|| hvx::vcvt_sf_hf(lo, hi))
    }

    /// Converts signed 16-bit integer lanes to FP16 (qfloat pre-V79).
    pub fn vcvt_h_hf(&mut self, v: &HvxVec) -> HvxVec {
        self.cost.charge_hvx_packets(1);
        self.lanes(|| hvx::vcvt_h_hf(v))
    }

    /// Sign-extends byte lanes to halfword lanes (register pair).
    pub fn vunpack_b_h(&mut self, v: &HvxVec) -> (HvxVec, HvxVec) {
        self.cost.charge_hvx_packets(1);
        self.lanes(|| hvx::vunpack_b_h(v))
    }

    /// Zero-extends byte lanes to halfword lanes (register pair).
    pub fn vunpack_ub_h(&mut self, v: &HvxVec) -> (HvxVec, HvxVec) {
        self.cost.charge_hvx_packets(1);
        self.lanes(|| hvx::vunpack_ub_h(v))
    }

    /// Bitwise AND of byte lanes.
    pub fn vand_b(&mut self, a: &HvxVec, b: &HvxVec) -> HvxVec {
        self.cost.charge_hvx_packets(1);
        self.lanes(|| hvx::map2_b(a, b, |x, y| x & y))
    }

    /// Bitwise OR of byte lanes.
    pub fn vor_b(&mut self, a: &HvxVec, b: &HvxVec) -> HvxVec {
        self.cost.charge_hvx_packets(1);
        self.lanes(|| hvx::map2_b(a, b, |x, y| x | y))
    }

    /// Byte-lane subtract with wrapping (used for the INT4 bias of 8).
    pub fn vsub_b(&mut self, a: &HvxVec, b: &HvxVec) -> HvxVec {
        self.cost.charge_hvx_packets(1);
        self.lanes(|| hvx::map2_b(a, b, |x, y| x.wrapping_sub(y)))
    }

    /// Logical shift right of byte lanes.
    pub fn vshr_b(&mut self, v: &HvxVec, n: u32) -> HvxVec {
        self.cost.charge_hvx_packets(1);
        self.lanes(|| hvx::vshr_b(v, n))
    }

    /// Logical shift right of halfword lanes.
    pub fn vshr_h(&mut self, v: &HvxVec, n: u32) -> HvxVec {
        self.cost.charge_hvx_packets(1);
        self.lanes(|| hvx::vshr_h(v, n))
    }

    /// Logical shift left of halfword lanes.
    pub fn vshl_h(&mut self, v: &HvxVec, n: u32) -> HvxVec {
        self.cost.charge_hvx_packets(1);
        self.lanes(|| hvx::vshl_h(v, n))
    }

    /// Interleaves halfword lanes of two registers (cross-lane shuffle used
    /// for the HMX two-row layout, paper Figure 4a).
    pub fn vshuff_h(&mut self, a: &HvxVec, b: &HvxVec) -> (HvxVec, HvxVec) {
        self.cost.charge_hvx_packets(1);
        self.lanes(|| hvx::vshuff_h(a, b))
    }

    /// Deinterleaves halfword lanes (inverse of [`NpuContext::vshuff_h`]).
    pub fn vdeal_h(&mut self, lo: &HvxVec, hi: &HvxVec) -> (HvxVec, HvxVec) {
        self.cost.charge_hvx_packets(1);
        self.lanes(|| hvx::vdeal_h(lo, hi))
    }

    /// `vlut16` with an FP16 table: 128 byte indices -> 128 FP16 lanes as a
    /// register pair. One instruction (paper Figure 9) and the results are
    /// IEEE FP16 directly — no qfloat conversion needed.
    pub fn vlut16_hf(&mut self, idx: &HvxVec, table: &[F16; 16]) -> (HvxVec, HvxVec) {
        self.cost.charge_vlut16();
        self.lanes(|| {
            let raw: [u16; 16] = std::array::from_fn(|i| table[i].0);
            hvx::vlut16(idx, &raw)
        })
    }

    /// Charges explicit pipeline-stall cycles (used to model the sequential
    /// dependency chains of polynomial evaluation under VLIW, Section 5.2.1).
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
    pub fn hmx_matmul(&mut self, acc: &mut HmxAccumulator, act: TcmAddr, wgt: TcmAddr) {
        self.cost.charge_hmx_tile_ops(1);
        assert!(
            act.0.is_multiple_of(2) && wgt.0.is_multiple_of(2),
            "tiles must be aligned"
        );
        match self.mode {
            ExecMode::Functional => {
                let act_tile = hmx::unpack_tile(self.tcm_peek(act, TILE_BYTES));
                let wgt_tile = hmx::unpack_tile(self.tcm_peek(wgt, TILE_BYTES));
                acc.mac(&act_tile, &wgt_tile);
            }
            ExecMode::CostOnly => {
                self.assert_in_tcm(act, TILE_BYTES);
                self.assert_in_tcm(wgt, TILE_BYTES);
            }
        }
    }

    /// Shape-level HMX charge: `n` tile-ops without data movement. Used by
    /// kernels inside [`NpuContext::replay`] blocks where the MAC work is
    /// proportional to a dimension that the block does not iterate.
    pub fn hmx_charge(&mut self, tile_ops: u64) {
        self.cost.charge_hmx_tile_ops(tile_ops);
    }

    /// Writes the accumulator to TCM as an interleaved FP16 tile, applying
    /// optional per-column scale/bias (HMX writeback path).
    ///
    /// # Panics
    ///
    /// Panics if the output range exceeds TCM.
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
            ExecMode::CostOnly => self.assert_in_tcm(out, TILE_BYTES),
        }
    }

    // ------------------------------------------------------------------
    // Phases and replay.
    // ------------------------------------------------------------------

    /// Runs `f` inside a named cost phase and returns the phase breakdown.
    pub fn phase<R>(&mut self, label: &str, f: impl FnOnce(&mut Self) -> R) -> (R, PhaseCost) {
        self.cost.begin_phase(label);
        let r = f(self);
        let p = self.cost.end_phase();
        (r, p)
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
    fn tcm_mark_release() {
        let mut c = ctx();
        let _keep = c.tcm_alloc(256, 1).unwrap();
        let mark = c.tcm_mark();
        c.tcm_alloc(1024, 1).unwrap();
        assert_eq!(c.tcm_used(), 256 + 1024);
        c.tcm_release(mark);
        assert_eq!(c.tcm_used(), 256);
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
            let charges = (
                Engine::ALL.map(|e| c.cost.engine_secs(e).to_bits()),
                *c.cost.counters(),
            );
            (charges, back, c.tcm_peek(t, HVX_BYTES).to_vec())
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
        assert_eq!(c.ddr_sessions(), 1);
        c.ddr_alloc(1_000_000_000).unwrap();
        assert_eq!(c.ddr_sessions(), 2);
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
        assert_eq!(c.cost.phases().len(), 1);
    }
}
