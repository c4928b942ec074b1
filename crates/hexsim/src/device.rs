//! Device profiles for the three Snapdragon generations evaluated in the
//! paper (Table 3), plus the calibration constants the cost model needs.
//!
//! | Device            | SoC               | NPU arch |
//! |-------------------|-------------------|----------|
//! | OnePlus Ace3      | Snapdragon 8 Gen 2 | V73     |
//! | OnePlus 12        | Snapdragon 8 Gen 3 | V75     |
//! | OnePlus Ace5 Pro  | Snapdragon 8 Elite | V79     |
//!
//! The V75 profile is calibrated directly against the paper's measurements
//! (Table 2: HVX single-thread FP16 GEMM 32.93 GFLOPS, HMX 12032.54 GFLOPS,
//! HVX core-path read 26 GB/s, DMA 60 GB/s; Section 5.2.1: `vgather` latency
//! 24-48 instruction packets). V73 and V79 are scaled from public generation
//! deltas and the relative throughput ordering visible in Figure 11.

/// Hexagon NPU architecture generation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NpuArch {
    /// Snapdragon 8 Gen 2 (OnePlus Ace3).
    V73,
    /// Snapdragon 8 Gen 3 (OnePlus 12) — the paper's primary device.
    V75,
    /// Snapdragon 8 Elite (OnePlus Ace5 Pro).
    V79,
}

impl NpuArch {
    /// Short marketing name of the SoC, as used in the paper's figures.
    pub fn soc_label(self) -> &'static str {
        match self {
            NpuArch::V73 => "8G2",
            NpuArch::V75 => "8G3",
            NpuArch::V79 => "8G4",
        }
    }
}

/// Static description of one simulated device.
///
/// All rate constants are expressed in base SI units (bytes/s, flops/s, Hz)
/// so the cost model can convert instruction and byte counts into seconds
/// without unit juggling.
#[derive(Clone, Debug)]
pub struct DeviceProfile {
    /// Human-readable device name (paper Table 3).
    pub name: &'static str,
    /// SoC name (paper Table 3).
    pub soc: &'static str,
    /// NPU architecture generation.
    pub arch: NpuArch,

    /// Number of scalar VLIW hardware threads (6-8 per Section 3.1.2).
    pub scalar_threads: u32,
    /// Number of HVX vector unit contexts (4-6 per Section 3.1.2).
    pub hvx_units: u32,
    /// Vector core clock in Hz; one instruction packet retires per cycle
    /// per thread in the simulator's cost model.
    pub vector_clock_hz: f64,

    /// Peak FP16 HMX throughput in FLOP/s (Table 2: 12032.54 GFLOPS on V75).
    pub hmx_flops: f64,
    /// Measured single-thread HVX FP16 GEMM throughput in FLOP/s
    /// (Table 2: 32.93 GFLOPS on V75). Used to calibrate vector-unit math.
    pub hvx_thread_gemm_flops: f64,

    /// DMA read bandwidth from DDR in bytes/s (Table 2: ~60 GB/s).
    pub dma_bw: f64,
    /// Sustained DDR weight-streaming bandwidth in bytes/s: whole-layer
    /// fetches from the CPU-owned staging region into the session window
    /// while NPU kernels run. Lower than `dma_bw` because the stream
    /// contends with the kernels' own DDR traffic (activations, KV) on the
    /// shared LPDDR controller; modeled at 75% of the idle DMA rate.
    pub ddr_stream_bw: f64,
    /// `l2fetch` bandwidth from DDR into L2 in bytes/s (20-30 GB/s, Fig. 3).
    pub l2fetch_bw: f64,
    /// HVX core-path load bandwidth in bytes/s (Table 2: < 30 GB/s; 26
    /// measured).
    pub hvx_load_bw: f64,
    /// TCM (vector scratch) load/store bandwidth in bytes/s. On-chip SRAM is
    /// much faster than the DDR path; this bounds HVX <-> TCM streaming.
    pub tcm_bw: f64,

    /// Tightly coupled memory capacity in bytes (8 MiB).
    pub tcm_bytes: u32,
    /// Shared L2 cache capacity in bytes (1 MiB).
    pub l2_bytes: u32,

    /// `vgather` latency in instruction packets (paper: 24-48 on V75). The
    /// simulator charges the midpoint for a standalone gather and the lower
    /// bound when the kernel declares software pipelining.
    pub vgather_packets_min: u32,
    /// Upper bound of `vgather` latency in packets.
    pub vgather_packets_max: u32,

    /// Whether HVX float ops produce IEEE FP16 directly. Prior to V79 they
    /// produce the internal `qfloat` format, costing extra convert
    /// instructions (Section 5.2.2).
    pub ieee_fp16_native: bool,

    /// Virtual address space usable by one NPU session, in bytes. Older
    /// devices expose a 2 GiB limit that prevents 3B+ models from running
    /// (Figure 11 note); newer ones the full 32-bit space.
    pub session_va_bytes: u64,
    /// Maximum concurrently mapped NPU sessions the runtime can hold open
    /// (FastRPC handles + dmabuf registrations). Multi-session sharding
    /// (Section 8) spends one per shard, so a model whose resident plan
    /// needs more sessions than this is unfittable without streaming.
    pub max_sessions: usize,

    /// Idle (base) SoC power draw during inference in watts, used by the
    /// activity-based power model (Figure 12 calibration).
    pub base_power_w: f64,
    /// Incremental power per fully busy engine in watts: HVX, HMX, DMA, CPU
    /// (4 big cores at full utilization).
    pub hvx_power_w: f64,
    /// Incremental HMX power in watts.
    pub hmx_power_w: f64,
    /// Incremental DMA/memory-system power in watts.
    pub dma_power_w: f64,
    /// Incremental CPU power (per fully-utilized core) in watts.
    pub cpu_core_power_w: f64,

    /// Aggregate CPU FP32 throughput available to the runtime (4 big cores),
    /// in FLOP/s. Used for operators placed on the CPU (lm_head, sampling).
    pub cpu_flops: f64,
    /// CPU memory bandwidth in bytes/s (shared LPDDR).
    pub cpu_mem_bw: f64,

    /// DVFS sustained operating point: the clock multiplier the governor
    /// drops to when the die crosses [`DeviceProfile::throttle_temp_c`]
    /// (burst is multiplier 1.0). Rates scale linearly with the
    /// multiplier, dynamic power cubically (P ∝ f·V², V ∝ f) — see
    /// [`DeviceProfile::at_clock`].
    pub sustained_clock_mult: f64,
    /// Die thermal mass in J/°C: joules needed to warm the package one
    /// degree. With the resistance below it sets the thermal time
    /// constant τ = R·C (tens of seconds on a passively cooled phone).
    pub thermal_capacitance_j_per_c: f64,
    /// Thermal resistance die → ambient in °C/W: the steady-state die
    /// temperature under power `P` is `ambient + R·P`.
    pub thermal_resistance_c_per_w: f64,
    /// Ambient (skin/sink) temperature in °C the die relaxes toward.
    pub ambient_temp_c: f64,
    /// Throttle cap in °C: crossing it drops the clock to the sustained
    /// operating point.
    pub throttle_temp_c: f64,
    /// Governor hysteresis in °C: burst clocks resume only once the die
    /// cools below `throttle_temp_c - throttle_hysteresis_c`, preventing
    /// burst/sustained oscillation around the cap.
    pub throttle_hysteresis_c: f64,
}

impl DeviceProfile {
    /// Snapdragon 8 Gen 2 (Hexagon V73) — OnePlus Ace3.
    pub fn v73() -> Self {
        DeviceProfile {
            name: "OnePlus Ace3",
            soc: "Snapdragon 8 Gen 2",
            arch: NpuArch::V73,
            scalar_threads: 6,
            hvx_units: 4,
            vector_clock_hz: 1.05e9,
            hmx_flops: 8.2e12,
            hvx_thread_gemm_flops: 26.0e9,
            dma_bw: 49.0e9,
            ddr_stream_bw: 36.75e9,
            l2fetch_bw: 20.0e9,
            hvx_load_bw: 21.0e9,
            tcm_bw: 110.0e9,
            tcm_bytes: 8 * 1024 * 1024,
            l2_bytes: 1024 * 1024,
            vgather_packets_min: 26,
            vgather_packets_max: 52,
            ieee_fp16_native: false,
            // Known VA-space limitation: ~2 GiB per session minus reserved
            // regions, so 3B+ models cannot map their weights (Figure 11
            // excludes them on 8G2).
            session_va_bytes: 1_900_000_000,
            max_sessions: 4,
            base_power_w: 2.1,
            hvx_power_w: 1.1,
            hmx_power_w: 0.9,
            dma_power_w: 0.55,
            cpu_core_power_w: 0.75,
            cpu_flops: 80.0e9,
            cpu_mem_bw: 28.0e9,
            sustained_clock_mult: 0.62,
            thermal_capacitance_j_per_c: 4.5,
            thermal_resistance_c_per_w: 5.2,
            ambient_temp_c: 25.0,
            throttle_temp_c: 44.0,
            throttle_hysteresis_c: 8.0,
        }
    }

    /// Snapdragon 8 Gen 3 (Hexagon V75) — OnePlus 12, the paper's primary
    /// measurement platform; constants match Table 2 where reported.
    pub fn v75() -> Self {
        DeviceProfile {
            name: "OnePlus 12",
            soc: "Snapdragon 8 Gen 3",
            arch: NpuArch::V75,
            scalar_threads: 6,
            hvx_units: 4,
            vector_clock_hz: 1.15e9,
            // Table 2: 12032.54 GFLOPS FP16 GEMM on HMX.
            hmx_flops: 12.03254e12,
            // Table 2: 32.93 GFLOPS FP16 GEMM on one HVX thread.
            hvx_thread_gemm_flops: 32.93e9,
            // Table 2: ~60 GB/s DMA read from DDR.
            dma_bw: 60.0e9,
            ddr_stream_bw: 45.0e9,
            l2fetch_bw: 25.0e9,
            // Table 2: 26 GB/s HVX core-path read.
            hvx_load_bw: 26.0e9,
            tcm_bw: 130.0e9,
            tcm_bytes: 8 * 1024 * 1024,
            l2_bytes: 1024 * 1024,
            // Section 5.2.1: vgather is 24-48 instruction packets on V75.
            vgather_packets_min: 24,
            vgather_packets_max: 48,
            ieee_fp16_native: false,
            session_va_bytes: 4 * 1024 * 1024 * 1024 - 4096,
            max_sessions: 4,
            base_power_w: 2.2,
            hvx_power_w: 1.2,
            hmx_power_w: 1.0,
            dma_power_w: 0.6,
            cpu_core_power_w: 0.8,
            cpu_flops: 95.0e9,
            cpu_mem_bw: 32.0e9,
            sustained_clock_mult: 0.60,
            thermal_capacitance_j_per_c: 5.0,
            thermal_resistance_c_per_w: 5.5,
            ambient_temp_c: 25.0,
            throttle_temp_c: 46.0,
            throttle_hysteresis_c: 8.0,
        }
    }

    /// Snapdragon 8 Elite (Hexagon V79) — OnePlus Ace5 Pro. Native IEEE
    /// FP16 vector arithmetic (no qfloat converts) and higher clocks.
    pub fn v79() -> Self {
        DeviceProfile {
            name: "OnePlus Ace5 Pro",
            soc: "Snapdragon 8 Elite",
            arch: NpuArch::V79,
            scalar_threads: 8,
            hvx_units: 6,
            vector_clock_hz: 1.35e9,
            hmx_flops: 15.5e12,
            hvx_thread_gemm_flops: 41.0e9,
            dma_bw: 72.0e9,
            ddr_stream_bw: 54.0e9,
            l2fetch_bw: 30.0e9,
            hvx_load_bw: 30.0e9,
            tcm_bw: 160.0e9,
            tcm_bytes: 8 * 1024 * 1024,
            l2_bytes: 1024 * 1024,
            vgather_packets_min: 22,
            vgather_packets_max: 44,
            ieee_fp16_native: true,
            session_va_bytes: 4 * 1024 * 1024 * 1024 - 4096,
            max_sessions: 4,
            base_power_w: 2.15,
            hvx_power_w: 1.25,
            hmx_power_w: 1.05,
            dma_power_w: 0.65,
            cpu_core_power_w: 0.85,
            cpu_flops: 120.0e9,
            cpu_mem_bw: 38.0e9,
            sustained_clock_mult: 0.65,
            thermal_capacitance_j_per_c: 5.5,
            thermal_resistance_c_per_w: 4.8,
            ambient_temp_c: 25.0,
            throttle_temp_c: 45.0,
            throttle_hysteresis_c: 8.0,
        }
    }

    /// All three evaluation devices in paper order (Table 3).
    pub fn all() -> Vec<DeviceProfile> {
        vec![Self::v73(), Self::v75(), Self::v79()]
    }

    /// HMX tile-op throughput in 32x32x32 FP16 tile multiply-accumulates
    /// per second (one tile-op is `2 * 32^3` flops).
    pub fn hmx_tile_ops_per_sec(&self) -> f64 {
        self.hmx_flops / (2.0 * 32.0 * 32.0 * 32.0)
    }

    /// Extra instructions per vector float op for qfloat -> IEEE conversion
    /// (zero on V79+, where HVX produces IEEE FP16 natively).
    pub fn qf16_convert_ops(&self) -> u64 {
        if self.ieee_fp16_native {
            0
        } else {
            1
        }
    }

    /// The profile re-derived at a DVFS clock multiplier: every rate
    /// constant (clocks, FLOP/s, bandwidths — the whole SoC rides one
    /// DVFS domain in this model) scales linearly with `mult`, while the
    /// per-engine *dynamic* power increments scale cubically (P ∝ f·V²
    /// with V ∝ f) and the base draw stays put. Capacities, latencies in
    /// *packets*, VA limits and the thermal constants are untouched.
    ///
    /// `at_clock(1.0)` is the identity; the throttled profile is
    /// `at_clock(sustained_clock_mult)`. Because every rate scales by the
    /// same factor, every engine's busy seconds for a fixed workload
    /// scale by exactly `1/mult` — the differential property the DVFS
    /// test suite pins. Fixed host-side overheads charged in raw seconds
    /// (FastRPC session switches) do not scale, by design.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < mult <= 1`.
    pub fn at_clock(&self, mult: f64) -> Self {
        assert!(
            mult > 0.0 && mult <= 1.0,
            "clock multiplier {mult} outside (0, 1]"
        );
        let p = mult * mult * mult;
        DeviceProfile {
            vector_clock_hz: self.vector_clock_hz * mult,
            hmx_flops: self.hmx_flops * mult,
            hvx_thread_gemm_flops: self.hvx_thread_gemm_flops * mult,
            dma_bw: self.dma_bw * mult,
            ddr_stream_bw: self.ddr_stream_bw * mult,
            l2fetch_bw: self.l2fetch_bw * mult,
            hvx_load_bw: self.hvx_load_bw * mult,
            tcm_bw: self.tcm_bw * mult,
            cpu_flops: self.cpu_flops * mult,
            cpu_mem_bw: self.cpu_mem_bw * mult,
            hvx_power_w: self.hvx_power_w * p,
            hmx_power_w: self.hmx_power_w * p,
            dma_power_w: self.dma_power_w * p,
            cpu_core_power_w: self.cpu_core_power_w * p,
            ..self.clone()
        }
    }

    /// Thermal time constant τ = R·C in seconds: the e-folding time of
    /// the die's exponential approach to its steady-state temperature.
    pub fn thermal_time_constant_secs(&self) -> f64 {
        self.thermal_resistance_c_per_w * self.thermal_capacitance_j_per_c
    }

    /// Steady-state die temperature in °C under a constant `power_w`.
    pub fn equilibrium_temp_c(&self, power_w: f64) -> f64 {
        self.ambient_temp_c + self.thermal_resistance_c_per_w * power_w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_constants_on_v75() {
        let d = DeviceProfile::v75();
        assert!((d.hmx_flops / 1e9 - 12032.54).abs() < 0.01);
        assert!((d.hvx_thread_gemm_flops / 1e9 - 32.93).abs() < 0.01);
        assert!((d.dma_bw / 1e9 - 60.0).abs() < 1e-9);
        assert!((d.hvx_load_bw / 1e9 - 26.0).abs() < 1e-9);
    }

    #[test]
    fn generation_ordering_matches_figure_11() {
        // Fig 11: throughput ordering 8G4 > 8G3 > 8G2 at matched batch.
        let (v73, v75, v79) = (
            DeviceProfile::v73(),
            DeviceProfile::v75(),
            DeviceProfile::v79(),
        );
        assert!(v79.hmx_flops > v75.hmx_flops);
        assert!(v75.hmx_flops > v73.hmx_flops);
        assert!(v79.dma_bw > v75.dma_bw);
        assert!(v75.dma_bw > v73.dma_bw);
    }

    #[test]
    fn va_space_gate() {
        // 8G2's ~2 GiB session limit is what excludes 3B models in Fig 11.
        assert!(DeviceProfile::v73().session_va_bytes <= 2 * 1024 * 1024 * 1024);
        assert!(DeviceProfile::v75().session_va_bytes > 2 * 1024 * 1024 * 1024);
    }

    #[test]
    fn qf16_penalty_only_pre_v79() {
        assert_eq!(DeviceProfile::v73().qf16_convert_ops(), 1);
        assert_eq!(DeviceProfile::v75().qf16_convert_ops(), 1);
        assert_eq!(DeviceProfile::v79().qf16_convert_ops(), 0);
    }

    #[test]
    fn soc_labels() {
        assert_eq!(NpuArch::V73.soc_label(), "8G2");
        assert_eq!(NpuArch::V75.soc_label(), "8G3");
        assert_eq!(NpuArch::V79.soc_label(), "8G4");
    }

    #[test]
    fn at_clock_scales_rates_linearly_and_power_cubically() {
        let base = DeviceProfile::v75();
        let m = 0.6;
        let d = base.at_clock(m);
        for (got, want) in [
            (d.vector_clock_hz, base.vector_clock_hz * m),
            (d.hmx_flops, base.hmx_flops * m),
            (d.hvx_thread_gemm_flops, base.hvx_thread_gemm_flops * m),
            (d.dma_bw, base.dma_bw * m),
            (d.ddr_stream_bw, base.ddr_stream_bw * m),
            (d.l2fetch_bw, base.l2fetch_bw * m),
            (d.hvx_load_bw, base.hvx_load_bw * m),
            (d.tcm_bw, base.tcm_bw * m),
            (d.cpu_flops, base.cpu_flops * m),
            (d.cpu_mem_bw, base.cpu_mem_bw * m),
        ] {
            assert_eq!(got, want);
        }
        let p = m * m * m;
        assert_eq!(d.hvx_power_w, base.hvx_power_w * p);
        assert_eq!(d.hmx_power_w, base.hmx_power_w * p);
        assert_eq!(d.dma_power_w, base.dma_power_w * p);
        assert_eq!(d.cpu_core_power_w, base.cpu_core_power_w * p);
        // Base draw, capacities, limits and thermal constants untouched.
        assert_eq!(d.base_power_w, base.base_power_w);
        assert_eq!(d.tcm_bytes, base.tcm_bytes);
        assert_eq!(d.session_va_bytes, base.session_va_bytes);
        assert_eq!(d.max_sessions, base.max_sessions);
        assert_eq!(d.throttle_temp_c, base.throttle_temp_c);
        assert_eq!(d.sustained_clock_mult, base.sustained_clock_mult);
    }

    #[test]
    fn at_clock_unity_is_identity() {
        let base = DeviceProfile::v79();
        let d = base.at_clock(1.0);
        assert_eq!(d.vector_clock_hz, base.vector_clock_hz);
        assert_eq!(d.hvx_power_w, base.hvx_power_w);
    }

    #[test]
    #[should_panic(expected = "outside (0, 1]")]
    fn at_clock_rejects_overclock() {
        let _ = DeviceProfile::v75().at_clock(1.1);
    }

    #[test]
    fn thermal_constants_give_plausible_throttle_story() {
        for d in DeviceProfile::all() {
            // The cap sits between ambient and a heavy-decode equilibrium
            // (~4 W), so burst clocks eventually throttle under sustained
            // load but a cool die always starts at burst.
            assert!(d.ambient_temp_c < d.throttle_temp_c);
            assert!(d.equilibrium_temp_c(4.2) > d.throttle_temp_c, "{}", d.name);
            // Sustained clocks must be thermally sustainable even in the
            // absolute worst case: every engine saturated, both memory
            // lanes (DMA + L2fetch) drawing at once, all four CPU cores
            // busy. If this equilibrium stayed above the cap, a throttled
            // die could never stop heating and the cap would be a lie.
            let s = d.at_clock(d.sustained_clock_mult);
            let sustained_max_w = s.base_power_w
                + s.hvx_power_w
                + s.hmx_power_w
                + 2.0 * s.dma_power_w
                + 4.0 * s.cpu_core_power_w;
            assert!(
                d.equilibrium_temp_c(sustained_max_w) < d.throttle_temp_c,
                "{}: worst-case sustained equilibrium above cap",
                d.name
            );
            // Tens-of-seconds thermal mass: the phone-chassis regime.
            let tau = d.thermal_time_constant_secs();
            assert!((10.0..120.0).contains(&tau), "{}: tau {tau}", d.name);
            assert!(d.throttle_hysteresis_c > 0.0);
            assert!((0.0..1.0).contains(&d.sustained_clock_mult));
        }
    }

    #[test]
    fn tile_op_rate_consistent() {
        let d = DeviceProfile::v75();
        let per_sec = d.hmx_tile_ops_per_sec();
        assert!((per_sec * 65536.0 - d.hmx_flops).abs() / d.hmx_flops < 1e-12);
    }
}
