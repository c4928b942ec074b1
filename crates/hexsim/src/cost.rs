//! Engine-level cost accounting for the simulated NPU.
//!
//! Every operation emitted through [`crate::ctx::NpuContext`] charges time to
//! one of six engines. Within a *phase*, engines run concurrently (wall time
//! is the maximum of the engine deltas — this models DMA double-buffering
//! overlapped with HVX/HMX compute, which the paper's kernels rely on);
//! across phases, time is sequential. A phase's cost is taken one way: a
//! [`CostModel::snapshot`] before it and [`CostModel::delta_since`] after.
//! Kernels report the resulting [`PhaseCost`] breakdown, which is exactly
//! the data behind the paper's Figure 8 latency decomposition and the
//! Figure 14/15 ablations.
//!
//! A cost-only kernel's host time is its chain of dependent additions to
//! the engine totals, so the bookkeeping around the chain does only what
//! changes a bit: [`CostModel::scale_since`] skips untouched fields and
//! [`CostModel::delta_since`] takes its maximum with `>`. Both rest on one
//! fact: an engine total starts at +0.0, and a float sum is −0.0 only when
//! both addends are, so no total is ever −0.0.

use crate::device::DeviceProfile;

/// A hardware engine that can be busy concurrently with the others.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Engine {
    /// Scalar VLIW control core(s).
    Scalar,
    /// HVX vector unit(s).
    Hvx,
    /// HMX matrix unit.
    Hmx,
    /// DMA engine (DDR <-> TCM).
    Dma,
    /// `l2fetch` prefetch engine (DDR -> L2).
    L2fetch,
    /// Host CPU (big cores), for operators the runtime places there.
    Cpu,
}

/// Number of distinct engines (array-map size).
pub const NUM_ENGINES: usize = 6;

impl Engine {
    /// All engines, in a fixed order usable as array indices.
    pub const ALL: [Engine; NUM_ENGINES] = [
        Engine::Scalar,
        Engine::Hvx,
        Engine::Hmx,
        Engine::Dma,
        Engine::L2fetch,
        Engine::Cpu,
    ];

    /// Stable array index of the engine (the position in [`Engine::ALL`]
    /// and in every `[f64; NUM_ENGINES]` engine-seconds array).
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            Engine::Scalar => 0,
            Engine::Hvx => 1,
            Engine::Hmx => 2,
            Engine::Dma => 3,
            Engine::L2fetch => 4,
            Engine::Cpu => 5,
        }
    }

    #[inline]
    pub(crate) fn idx(self) -> usize {
        self.index()
    }

    /// Short lowercase label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Engine::Scalar => "scalar",
            Engine::Hvx => "hvx",
            Engine::Hmx => "hmx",
            Engine::Dma => "dma",
            Engine::L2fetch => "l2fetch",
            Engine::Cpu => "cpu",
        }
    }
}

/// Raw activity counters, useful for reports and calibration checks.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Counters {
    /// HVX vector instructions issued.
    pub hvx_instructions: u64,
    /// `vgather` instructions issued (they dominate LUT softmax cost).
    pub vgathers: u64,
    /// `vlut16` instructions issued.
    pub vluts: u64,
    /// HMX 32x32x32 FP16 tile multiply-accumulates.
    pub hmx_tile_ops: u64,
    /// Bytes moved by the DMA engine.
    pub dma_bytes: u64,
    /// Bytes prefetched by `l2fetch`.
    pub l2fetch_bytes: u64,
    /// Bytes loaded by HVX over the core path (DDR/L2, not TCM).
    pub hvx_ddr_load_bytes: u64,
    /// Bytes moved between HVX and TCM.
    pub tcm_bytes: u64,
    /// FP32 floating-point operations executed on the host CPU.
    pub cpu_flops: u64,
    /// Bytes moved by the host CPU.
    pub cpu_bytes: u64,
}

impl Counters {
    #[inline]
    fn scale(&mut self, base: &Counters, factor: u64) {
        // self = base + (self - base) * factor, elementwise. A counter that
        // did not move already holds that value.
        macro_rules! sc {
            ($f:ident) => {
                if self.$f != base.$f {
                    self.$f = base.$f + (self.$f - base.$f) * factor;
                }
            };
        }
        sc!(hvx_instructions);
        sc!(vgathers);
        sc!(vluts);
        sc!(hmx_tile_ops);
        sc!(dma_bytes);
        sc!(l2fetch_bytes);
        sc!(hvx_ddr_load_bytes);
        sc!(tcm_bytes);
        sc!(cpu_flops);
        sc!(cpu_bytes);
    }
}

/// Busy time per engine plus the wall-clock composition of one phase.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhaseCost {
    /// Phase label (e.g. `"gemm"`, `"lut16"`), or `""` when the caller
    /// only reads the numbers.
    pub label: &'static str,
    /// Busy seconds per engine during the phase.
    pub engine_secs: [f64; NUM_ENGINES],
    /// Wall-clock seconds: max over engines (they overlap within a phase).
    pub wall_secs: f64,
}

impl PhaseCost {
    /// Busy seconds of one engine.
    pub fn engine(&self, e: Engine) -> f64 {
        self.engine_secs[e.idx()]
    }
}

/// Snapshot token for [`CostModel::delta_since`] and
/// [`CostModel::scale_since`].
#[derive(Clone, Copy, Debug)]
pub struct CostSnapshot {
    engine_secs: [f64; NUM_ENGINES],
    counters: Counters,
}

/// Accumulates engine-busy time and activity counters for one NPU context.
///
/// The model is intentionally first-order: each HVX instruction packet takes
/// one vector-clock cycle on its thread; `vgather` takes the device's
/// published 24-48 packets; byte movement is charged at the engine's
/// calibrated bandwidth; HMX tile-ops at the device's peak tile rate. The
/// paper's speedups (Figures 14 and 15) emerge from instruction and byte
/// *counts*, which the kernels produce faithfully.
#[derive(Clone, Debug)]
pub struct CostModel {
    /// The profile all charges price against (a throttled operating
    /// point is a profile of its own, [`DeviceProfile::at_clock`]).
    device: DeviceProfile,
    engine_secs: [f64; NUM_ENGINES],
    counters: Counters,
    /// Divisor applied to HVX charges: number of vector threads the current
    /// kernel declared it spreads across (1 = single-threaded).
    hvx_parallelism: f64,
}

impl CostModel {
    /// Creates an empty cost model for a device.
    pub fn new(device: DeviceProfile) -> Self {
        CostModel {
            device,
            engine_secs: [0.0; NUM_ENGINES],
            counters: Counters::default(),
            hvx_parallelism: 1.0,
        }
    }

    /// The device this model charges against.
    pub fn device(&self) -> &DeviceProfile {
        &self.device
    }

    /// Raw activity counters.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Total busy seconds of one engine since creation (or last reset).
    #[inline]
    pub fn engine_secs(&self, e: Engine) -> f64 {
        self.engine_secs[e.idx()]
    }

    /// Clears all accumulated time and counters.
    pub fn reset(&mut self) {
        self.engine_secs = [0.0; NUM_ENGINES];
        self.counters = Counters::default();
        self.hvx_parallelism = 1.0;
    }

    /// Declares that subsequent HVX charges are spread over `threads` vector
    /// threads (clamped to the device's scalar thread count). Returns the
    /// previous value so callers can restore it.
    pub fn set_hvx_parallelism(&mut self, threads: u32) -> f64 {
        let prev = self.hvx_parallelism;
        let t = threads.clamp(1, self.device.scalar_threads) as f64;
        self.hvx_parallelism = t;
        prev
    }

    /// Restores a previously saved HVX parallelism divisor.
    pub fn restore_hvx_parallelism(&mut self, prev: f64) {
        self.hvx_parallelism = prev;
    }

    /// Charges `packets` instruction packets to the HVX engine, honoring the
    /// declared thread parallelism.
    #[inline]
    pub fn charge_hvx_packets(&mut self, packets: u64) {
        self.counters.hvx_instructions += packets;
        let secs = packets as f64 / self.device.vector_clock_hz / self.hvx_parallelism;
        self.engine_secs[Engine::Hvx.idx()] += secs;
    }

    /// Charges one `vgather` (paper: 24-48 packets on V75). `pipelined`
    /// charges the lower bound, modelling multiple gathers in flight.
    #[inline]
    pub fn charge_vgather(&mut self, pipelined: bool) {
        self.counters.vgathers += 1;
        let p = if pipelined {
            self.device.vgather_packets_min
        } else {
            (self.device.vgather_packets_min + self.device.vgather_packets_max) / 2
        };
        self.charge_hvx_packets(p as u64);
    }

    /// Charges one `vlut16` instruction.
    #[inline]
    pub fn charge_vlut16(&mut self) {
        self.counters.vluts += 1;
        self.charge_hvx_packets(1);
    }

    /// Charges `n` HMX 32x32x32 FP16 tile multiply-accumulates.
    #[inline]
    pub fn charge_hmx_tile_ops(&mut self, n: u64) {
        self.counters.hmx_tile_ops += n;
        let secs = n as f64 / self.device.hmx_tile_ops_per_sec();
        self.engine_secs[Engine::Hmx.idx()] += secs;
    }

    /// Charges a DMA transfer of `bytes` between DDR and TCM.
    #[inline]
    pub fn charge_dma(&mut self, bytes: u64) {
        self.counters.dma_bytes += bytes;
        self.engine_secs[Engine::Dma.idx()] += bytes as f64 / self.device.dma_bw;
    }

    /// Charges a whole-layer weight stream of `bytes` from the CPU-owned
    /// DDR staging region into the session window, at the device's
    /// sustained (compute-contended) streaming bandwidth — slower than the
    /// idle [`CostModel::charge_dma`] rate. Returns the charged seconds so
    /// the caller can record the fetch as an overlap-schedulable stage.
    #[inline]
    pub fn charge_ddr_stream(&mut self, bytes: u64) -> f64 {
        self.counters.dma_bytes += bytes;
        let secs = bytes as f64 / self.device.ddr_stream_bw;
        self.engine_secs[Engine::Dma.idx()] += secs;
        secs
    }

    /// Charges an `l2fetch` prefetch of `bytes` from DDR into L2.
    #[inline]
    pub fn charge_l2fetch(&mut self, bytes: u64) {
        self.counters.l2fetch_bytes += bytes;
        self.engine_secs[Engine::L2fetch.idx()] += bytes as f64 / self.device.l2fetch_bw;
    }

    /// Charges an HVX load/store over the core path from DDR/L2 (the slow
    /// path, Table 2: 26 GB/s on V75).
    #[inline]
    pub fn charge_hvx_ddr_bytes(&mut self, bytes: u64) {
        self.counters.hvx_ddr_load_bytes += bytes;
        let secs = bytes as f64 / self.device.hvx_load_bw / self.hvx_parallelism;
        self.engine_secs[Engine::Hvx.idx()] += secs;
    }

    /// Charges HVX <-> TCM streaming of `bytes` (fast on-chip path).
    #[inline]
    pub fn charge_tcm_bytes(&mut self, bytes: u64) {
        self.counters.tcm_bytes += bytes;
        let secs = bytes as f64 / self.device.tcm_bw / self.hvx_parallelism;
        self.engine_secs[Engine::Hvx.idx()] += secs;
    }

    /// Charges `flops` FP32 operations on the host CPU at its calibrated
    /// aggregate throughput, plus `bytes` of memory traffic; the slower of
    /// the two bounds the time (simple roofline).
    #[inline]
    pub fn charge_cpu(&mut self, flops: u64, bytes: u64) {
        self.counters.cpu_flops += flops;
        self.counters.cpu_bytes += bytes;
        let t_flops = flops as f64 / self.device.cpu_flops;
        let t_bytes = bytes as f64 / self.device.cpu_mem_bw;
        self.engine_secs[Engine::Cpu.idx()] += t_flops.max(t_bytes);
    }

    /// Charges raw seconds to an engine (escape hatch for modelled fixed
    /// overheads such as RPC handshakes).
    #[inline]
    pub fn charge_secs(&mut self, e: Engine, secs: f64) {
        self.engine_secs[e.idx()] += secs;
    }

    /// Takes a snapshot for a later [`CostModel::delta_since`] or
    /// [`CostModel::scale_since`].
    #[inline]
    pub fn snapshot(&self) -> CostSnapshot {
        CostSnapshot {
            engine_secs: self.engine_secs,
            counters: self.counters,
        }
    }

    /// Difference between now and a snapshot, as a [`PhaseCost`]: the
    /// busy seconds each engine gained, and their maximum as the wall
    /// time. This is the one way to take a cost delta.
    ///
    /// The maximum is a plain `>` fold from 0.0, which skips a NaN delta
    /// (an engine whose total is infinite on both sides) just as
    /// `f64::max` does. A delta is never −0.0, because no total is, so
    /// the two folds agree bit for bit.
    #[allow(clippy::needless_range_loop)]
    #[inline]
    pub fn delta_since(&self, snap: &CostSnapshot, label: &'static str) -> PhaseCost {
        let mut engine_secs = [0.0; NUM_ENGINES];
        let mut wall_secs = 0.0f64;
        for i in 0..NUM_ENGINES {
            engine_secs[i] = self.engine_secs[i] - snap.engine_secs[i];
            if engine_secs[i] > wall_secs {
                wall_secs = engine_secs[i];
            }
        }
        PhaseCost {
            label,
            engine_secs,
            wall_secs,
        }
    }

    /// Multiplies everything charged since `snap` by `factor`. Used by
    /// [`crate::ctx::NpuContext::replay`] to extrapolate one representative
    /// block execution to `factor` identical blocks.
    ///
    /// Every field becomes `snap + (now − snap)·factor`. An engine whose
    /// delta is exactly 0.0 and a counter that did not move are left as
    /// they are: they already hold that value (no total is −0.0). An
    /// infinite total has a NaN delta and is written as before.
    #[inline]
    pub fn scale_since(&mut self, snap: &CostSnapshot, factor: u64) {
        for i in 0..NUM_ENGINES {
            let delta = self.engine_secs[i] - snap.engine_secs[i];
            if delta != 0.0 {
                self.engine_secs[i] = snap.engine_secs[i] + delta * factor as f64;
            }
        }
        self.counters.scale(&snap.counters, factor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        CostModel::new(DeviceProfile::v75())
    }

    #[test]
    fn hvx_packet_time_matches_clock() {
        let mut m = model();
        m.charge_hvx_packets(1_150_000); // 1 ms at 1.15 GHz.
        assert!((m.engine_secs(Engine::Hvx) - 1.0e-3).abs() < 1e-12);
    }

    #[test]
    fn parallelism_divides_hvx_time() {
        let mut m = model();
        let prev = m.set_hvx_parallelism(4);
        m.charge_hvx_packets(4_000);
        m.restore_hvx_parallelism(prev);
        m.charge_hvx_packets(1_000);
        // 4000/4 + 1000 = 2000 cycle-equivalents.
        let expect = 2000.0 / 1.15e9;
        assert!((m.engine_secs(Engine::Hvx) - expect).abs() < 1e-15);
    }

    #[test]
    fn parallelism_clamps_to_thread_count() {
        let mut m = model();
        m.set_hvx_parallelism(64);
        m.charge_hvx_packets(6_000);
        // V75 has 6 scalar threads; 64 must clamp to 6.
        let expect = 1000.0 / 1.15e9;
        assert!((m.engine_secs(Engine::Hvx) - expect).abs() < 1e-15);
    }

    #[test]
    fn dma_time_matches_bandwidth() {
        let mut m = model();
        m.charge_dma(60_000_000_000); // 1 s at 60 GB/s.
        assert!((m.engine_secs(Engine::Dma) - 1.0).abs() < 1e-9);
        assert_eq!(m.counters().dma_bytes, 60_000_000_000);
    }

    #[test]
    fn ddr_stream_time_matches_sustained_bandwidth() {
        let mut m = model();
        // 1 s at the V75 sustained streaming rate (45 GB/s, below the
        // 60 GB/s idle DMA rate).
        let secs = m.charge_ddr_stream(45_000_000_000);
        assert!((secs - 1.0).abs() < 1e-9);
        assert!((m.engine_secs(Engine::Dma) - 1.0).abs() < 1e-9);
        assert_eq!(m.counters().dma_bytes, 45_000_000_000);
    }

    #[test]
    fn hmx_tile_rate_matches_table2() {
        let mut m = model();
        // 1 second of tile-ops at peak should equal hmx_flops of work.
        let tiles_per_sec = DeviceProfile::v75().hmx_tile_ops_per_sec();
        m.charge_hmx_tile_ops(tiles_per_sec as u64);
        assert!((m.engine_secs(Engine::Hmx) - 1.0).abs() < 1e-3);
    }

    #[test]
    fn phase_wall_is_max_of_engines() {
        let mut m = model();
        m.charge_hmx_tile_ops(1000); // Before the snapshot: not in the delta.
        let snap = m.snapshot();
        m.charge_dma(6_000_000); // 0.1 ms on DMA.
        m.charge_hvx_packets(230_000); // 0.2 ms on HVX.
        let p = m.delta_since(&snap, "p");
        assert_eq!(p.label, "p");
        assert!((p.wall_secs - 0.2e-3).abs() < 1e-8);
        assert!((p.engine(Engine::Dma) - 0.1e-3).abs() < 1e-8);
        assert_eq!(p.engine(Engine::Hmx), 0.0);
        assert_eq!(p.wall_secs, p.engine(Engine::Hvx));
    }

    #[test]
    fn scale_since_multiplies_delta_only() {
        let mut m = model();
        m.charge_dma(1000);
        let snap = m.snapshot();
        m.charge_dma(500);
        m.charge_hvx_packets(10);
        m.scale_since(&snap, 8);
        assert_eq!(m.counters().dma_bytes, 1000 + 500 * 8);
        assert_eq!(m.counters().hvx_instructions, 80);
    }

    #[test]
    fn vgather_charges_device_packets() {
        let mut m = model();
        m.charge_vgather(true);
        let t_min = 24.0 / 1.15e9;
        assert!((m.engine_secs(Engine::Hvx) - t_min).abs() < 1e-15);
        m.reset();
        m.charge_vgather(false);
        let t_mid = 36.0 / 1.15e9;
        assert!((m.engine_secs(Engine::Hvx) - t_mid).abs() < 1e-15);
    }

    #[test]
    fn cpu_roofline_takes_slower_bound() {
        let mut m = model();
        // Tiny flops, huge bytes: memory-bound.
        m.charge_cpu(1, 32_000_000_000);
        assert!((m.engine_secs(Engine::Cpu) - 1.0).abs() < 1e-9);
    }

    /// Every counter, in declaration order.
    fn counter_fields(c: &Counters) -> [u64; 10] {
        [
            c.hvx_instructions,
            c.vgathers,
            c.vluts,
            c.hmx_tile_ops,
            c.dma_bytes,
            c.l2fetch_bytes,
            c.hvx_ddr_load_bytes,
            c.tcm_bytes,
            c.cpu_flops,
            c.cpu_bytes,
        ]
    }

    /// Equal bits, or both NaN (a NaN's payload is not pinned).
    fn same_f64(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// One charge of a random kind and size on one of the engines `mask`
    /// selects (bit `Engine::index`), or nothing if the mask is empty.
    fn random_charge(m: &mut CostModel, next: &mut impl FnMut(u64) -> u64, mask: u8) {
        let engines: Vec<Engine> = Engine::ALL
            .into_iter()
            .filter(|e| mask & (1 << e.index()) != 0)
            .collect();
        if engines.is_empty() {
            return;
        }
        let n = 1 + next(1 << 20);
        match engines[next(engines.len() as u64) as usize] {
            Engine::Scalar => m.charge_secs(Engine::Scalar, n as f64 * 1e-9),
            Engine::Hvx => match next(5) {
                0 => m.charge_hvx_packets(n),
                1 => m.charge_vgather(n.is_multiple_of(2)),
                2 => m.charge_vlut16(),
                3 => m.charge_hvx_ddr_bytes(n),
                _ => m.charge_tcm_bytes(n),
            },
            Engine::Hmx => m.charge_hmx_tile_ops(n),
            Engine::Dma => match next(2) {
                0 => m.charge_dma(n),
                _ => {
                    m.charge_ddr_stream(n);
                }
            },
            Engine::L2fetch => m.charge_l2fetch(n),
            Engine::Cpu => m.charge_cpu(n, next(1 << 24)),
        }
    }

    /// `delta_since` and `scale_since` against the formulas they replaced:
    /// the wall as an `f64::max` fold from 0.0, and `snap + (now − snap)·n`
    /// written to every engine and every counter. Covers engines left
    /// untouched between the snapshot and the call, an engine total at
    /// +∞ before or after the snapshot (a NaN or an infinite delta) and a
    /// NaN total.
    #[test]
    fn delta_and_scale_match_the_unskipped_formulas_bit_for_bit() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        for case in 0..600 {
            let mut m = CostModel::new(DeviceProfile::v75());
            m.set_hvx_parallelism(1 + next(6) as u32);
            for _ in 0..next(8) {
                random_charge(&mut m, &mut next, 0x3f);
            }
            let odd = Engine::ALL[next(NUM_ENGINES as u64) as usize];
            // Cases 0-3 of every 8 poison one engine: at +inf or NaN,
            // before or after the snapshot.
            let poison = [f64::INFINITY, f64::NAN][case % 2];
            if case % 8 < 2 {
                m.charge_secs(odd, poison);
            }
            let snap = m.snapshot();
            // Charge some engines and leave the others (and their
            // counters) where the snapshot found them.
            let moved = next(64) as u8;
            for _ in 0..next(6) {
                random_charge(&mut m, &mut next, moved);
            }
            if (2..4).contains(&(case % 8)) {
                m.charge_secs(odd, poison);
            }
            let now = m.engine_secs;
            let now_counters = m.counters;

            let delta = m.delta_since(&snap, "");
            let want: [f64; NUM_ENGINES] = std::array::from_fn(|i| now[i] - snap.engine_secs[i]);
            let want_wall = want.iter().fold(0.0f64, |acc, &s| acc.max(s));
            for (got, want) in delta.engine_secs.iter().zip(want) {
                assert!(same_f64(*got, want), "case {case}: {got} vs {want}");
            }
            assert!(same_f64(delta.wall_secs, want_wall), "case {case} wall");

            let factor = next(40);
            m.scale_since(&snap, factor);
            let want: [f64; NUM_ENGINES] = std::array::from_fn(|i| {
                snap.engine_secs[i] + (now[i] - snap.engine_secs[i]) * factor as f64
            });
            for (got, want) in m.engine_secs.iter().zip(want) {
                assert!(
                    same_f64(*got, want),
                    "case {case} x{factor}: {got} vs {want}"
                );
            }
            let (base, cur) = (
                counter_fields(&snap.counters),
                counter_fields(&now_counters),
            );
            let want: [u64; 10] = std::array::from_fn(|i| base[i] + (cur[i] - base[i]) * factor);
            assert_eq!(counter_fields(&m.counters), want, "case {case}");
        }
    }

    /// From-scratch scalar reference for one charge sequence at a DVFS
    /// multiplier: prices every lane directly off the scaled constants,
    /// sharing no code with `CostModel` beyond the device struct.
    fn throttled_reference(base: &DeviceProfile, mult: f64) -> [f64; NUM_ENGINES] {
        let mut secs = [0.0f64; NUM_ENGINES];
        // HVX: 4600 packets single-threaded + one pipelined vgather.
        secs[Engine::Hvx.idx()] +=
            (4600.0 + base.vgather_packets_min as f64) / (base.vector_clock_hz * mult);
        // HVX core-path load of 13 MB and 26 MB of TCM streaming.
        secs[Engine::Hvx.idx()] += 13.0e6 / (base.hvx_load_bw * mult);
        secs[Engine::Hvx.idx()] += 26.0e6 / (base.tcm_bw * mult);
        // HMX: 1000 tile-ops at the scaled tile rate.
        secs[Engine::Hmx.idx()] += 1000.0 / ((base.hmx_flops * mult) / (2.0 * 32.0 * 32.0 * 32.0));
        // DMA: a 6 MB idle-rate transfer plus a 9 MB sustained weight
        // stream (the streaming lane must scale too).
        secs[Engine::Dma.idx()] += 6.0e6 / (base.dma_bw * mult);
        secs[Engine::Dma.idx()] += 9.0e6 / (base.ddr_stream_bw * mult);
        // l2fetch: 5 MB prefetch.
        secs[Engine::L2fetch.idx()] += 5.0e6 / (base.l2fetch_bw * mult);
        // CPU roofline: a compute-bound and a memory-bound charge, plus a
        // fixed 30 us session switch that must NOT scale.
        secs[Engine::Cpu.idx()] += 2.0e9 / (base.cpu_flops * mult);
        secs[Engine::Cpu.idx()] += 64.0e6 / (base.cpu_mem_bw * mult);
        secs[Engine::Cpu.idx()] += 30e-6;
        secs
    }

    /// Replays the same charge sequence through the cost model.
    fn throttled_charges(m: &mut CostModel) {
        m.charge_hvx_packets(4600);
        m.charge_vgather(true);
        m.charge_hvx_ddr_bytes(13_000_000);
        m.charge_tcm_bytes(26_000_000);
        m.charge_hmx_tile_ops(1000);
        m.charge_dma(6_000_000);
        let _ = m.charge_ddr_stream(9_000_000);
        m.charge_l2fetch(5_000_000);
        m.charge_cpu(2_000_000_000, 0);
        m.charge_cpu(0, 64_000_000);
        m.charge_secs(Engine::Cpu, 30e-6);
    }

    #[test]
    fn throttled_charges_match_the_scalar_reference_on_every_lane() {
        for base in DeviceProfile::all() {
            for mult in [1.0, 0.82, 0.65, 0.6] {
                let mut m = CostModel::new(base.at_clock(mult));
                throttled_charges(&mut m);
                let want = throttled_reference(&base, mult);
                for e in Engine::ALL {
                    let got = m.engine_secs(e);
                    let w = want[e.idx()];
                    assert!(
                        (got - w).abs() <= w.abs() * 1e-12,
                        "{} {} mult {mult}: {got} vs reference {w}",
                        base.name,
                        e.label()
                    );
                }
            }
        }
    }

    #[test]
    fn throttled_lanes_scale_by_exactly_one_over_mult() {
        // Every rate scales by the same factor, so busy seconds for the
        // same workload scale by 1/mult on every lane — except the fixed
        // session-switch seconds, which are subtracted out here.
        let base = DeviceProfile::v75();
        let mult = 0.6;
        let mut burst = CostModel::new(base.clone());
        throttled_charges(&mut burst);
        let mut slow = CostModel::new(base.at_clock(mult));
        throttled_charges(&mut slow);
        for e in Engine::ALL {
            let fixed = if e == Engine::Cpu { 30e-6 } else { 0.0 };
            let b = burst.engine_secs(e) - fixed;
            let s = slow.engine_secs(e) - fixed;
            assert!(
                (s - b / mult).abs() <= (b / mult).abs() * 1e-9 + 1e-18,
                "{}: {s} vs {b}/{mult}",
                e.label()
            );
        }
        // Counters are clock-independent (same instructions, same bytes).
        assert_eq!(burst.counters(), slow.counters());
    }
}
