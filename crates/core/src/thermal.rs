//! Thermal capacitance, DVFS governor, and sustained-throughput curves.
//!
//! The power model ([`crate::power`]) produces watts; this module closes
//! the loop back into latency. Each device carries a lumped RC thermal
//! model (die + package as one capacitance, case-to-ambient as one
//! resistance) and two DVFS operating points (burst and sustained clocks).
//! Heat flows into the capacitance every simulated decode step; when the
//! die crosses the throttle cap the governor drops to the sustained clock,
//! which scales every engine rate by `sustained_clock_mult` (and dynamic
//! power by its cube) via [`DeviceProfile::at_clock`]. The result is the
//! trajectory a phone actually experiences: burst tokens/sec for the first
//! tens of seconds, then a sustained plateau.
//!
//! Heat flow per step of `dt` seconds at power `P`:
//!
//! ```text
//!   dissipated = dt * (T - T_ambient) / R        (watts out through case)
//!   T += (P * dt - dissipated) / C               (explicit Euler)
//! ```
//!
//! so `P * dt == C * dT + dissipated` holds exactly per step — the energy
//! conservation invariant the property suite checks.

use edgellm::config::ModelId;
use hexsim::prelude::*;

use crate::backend::{Backend, NpuSimBackend};
use crate::pipeline::DecodePoint;
use crate::power::PowerModel;

/// Lumped die temperature state for one device.
#[derive(Clone, Debug, PartialEq)]
pub struct ThermalState {
    /// Current die temperature in Celsius.
    pub temp_c: f64,
}

impl ThermalState {
    /// Starts at the device's ambient temperature (a cold phone).
    pub fn ambient(device: &DeviceProfile) -> Self {
        ThermalState {
            temp_c: device.ambient_temp_c,
        }
    }

    /// Advances the die temperature by one explicit-Euler step: `power_w`
    /// flows in for `dt_secs`, heat leaks to ambient through the package
    /// resistance. Returns the joules dissipated to ambient during the
    /// step, so callers can audit energy conservation:
    /// `power_w * dt_secs == capacitance * delta_T + dissipated`.
    ///
    /// The dissipation term uses the *pre-step* temperature, which keeps
    /// the identity above exact (no implicit solve) and is stable for any
    /// `dt_secs` well below the thermal time constant (tens of seconds
    /// for these devices; decode steps are tens of milliseconds).
    pub fn step(&mut self, device: &DeviceProfile, power_w: f64, dt_secs: f64) -> f64 {
        let dissipated =
            dt_secs * (self.temp_c - device.ambient_temp_c) / device.thermal_resistance_c_per_w;
        self.temp_c += (power_w * dt_secs - dissipated) / device.thermal_capacitance_j_per_c;
        dissipated
    }
}

/// Two-point DVFS governor with hysteresis.
///
/// Throttles (drops to `sustained_clock_mult`) when the die reaches the
/// throttle cap, and returns to burst clocks only once the die has cooled
/// `throttle_hysteresis_c` below the cap — the guard band that prevents
/// clock flapping right at the threshold.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DvfsGovernor {
    throttled: bool,
}

impl DvfsGovernor {
    /// A governor starting at burst clocks.
    pub fn new() -> Self {
        DvfsGovernor::default()
    }

    /// Updates the throttle decision from the current die temperature.
    pub fn observe(&mut self, device: &DeviceProfile, temp_c: f64) {
        if self.throttled {
            if temp_c < device.throttle_temp_c - device.throttle_hysteresis_c {
                self.throttled = false;
            }
        } else if temp_c >= device.throttle_temp_c {
            self.throttled = true;
        }
    }

    /// Whether the governor is currently at the sustained operating point.
    pub fn is_throttled(&self) -> bool {
        self.throttled
    }

    /// The clock multiplier the governor currently commands.
    pub fn clock_mult(&self, device: &DeviceProfile) -> f64 {
        if self.throttled {
            device.sustained_clock_mult
        } else {
            1.0
        }
    }
}

/// One decimated sample of a sustained-decode trajectory.
#[derive(Clone, Debug)]
pub struct TracePoint {
    /// Simulated seconds since decode started.
    pub time_secs: f64,
    /// Die temperature at that time.
    pub temp_c: f64,
    /// Clock multiplier in effect (1.0 burst, `sustained_clock_mult` hot).
    pub clock_mult: f64,
}

/// Burst-vs-sustained decode summary for one (device, model, batch) cell.
#[derive(Clone, Debug)]
pub struct SustainedCurve {
    /// Device SoC label.
    pub device: String,
    /// Model label.
    pub model: String,
    /// Decode batch size.
    pub batch: usize,
    /// Context length per sequence.
    pub ctx_len: usize,
    /// Simulated decode steps taken.
    pub steps: usize,
    /// Tokens/sec at burst clocks (the paper's snapshot numbers).
    pub burst_tokens_per_sec: f64,
    /// Tokens/sec at the sustained operating point.
    pub sustained_tokens_per_sec: f64,
    /// Average tokens/sec over the whole simulated window (burst ramp
    /// included) — the number a sustained benchmark run would report.
    pub avg_tokens_per_sec: f64,
    /// Average device watts while at burst clocks.
    pub burst_power_w: f64,
    /// Average device watts while throttled.
    pub sustained_power_w: f64,
    /// Tokens per joule at burst clocks.
    pub burst_tokens_per_joule: f64,
    /// Tokens per joule at the sustained point.
    pub sustained_tokens_per_joule: f64,
    /// Step index at which the governor first throttled, if it did.
    pub first_throttle_step: Option<usize>,
    /// Simulated seconds at which the governor first throttled.
    pub first_throttle_secs: Option<f64>,
    /// Hottest die temperature reached.
    pub peak_temp_c: f64,
    /// Die temperature at the end of the window.
    pub final_temp_c: f64,
    /// Decimated temperature/clock trajectory (at most ~200 points).
    pub trace: Vec<TracePoint>,
}

/// Maximum points kept in a [`SustainedCurve::trace`].
const TRACE_POINTS: usize = 200;

/// Simulates `duration_secs` of back-to-back decode on `device` with the
/// thermal/DVFS loop closed: every step deposits its joules into the die,
/// the governor rethrottles between steps, and throttled steps run on the
/// [`DeviceProfile::at_clock`]-scaled profile (so the whole cost model —
/// HVX, HMX, DMA, streaming fetches, session switches — reprices, not just
/// a headline rate).
pub fn sustained_decode_curve(
    device: &DeviceProfile,
    model: ModelId,
    batch: usize,
    ctx_len: usize,
    duration_secs: f64,
) -> SimResult<SustainedCurve> {
    let burst = NpuSimBackend::overlapped(device.clone()).decode(model, batch, ctx_len)?;
    let hot_device = device.at_clock(device.sustained_clock_mult);
    let sustained = NpuSimBackend::overlapped(hot_device.clone()).decode(model, batch, ctx_len)?;
    let burst_power_w = PowerModel::new(device.clone()).step_power(&burst);
    let sustained_power_w = PowerModel::new(hot_device).step_power(&sustained);

    let mut thermal = ThermalState::ambient(device);
    let mut governor = DvfsGovernor::new();
    let mut now = 0.0f64;
    let mut steps = 0usize;
    let mut tokens = 0.0f64;
    let mut first_throttle = None;
    let mut peak_temp_c = thermal.temp_c;
    let mut trace = Vec::new();
    while now < duration_secs {
        governor.observe(device, thermal.temp_c);
        let (point, power_w): (&DecodePoint, f64) = if governor.is_throttled() {
            (&sustained, sustained_power_w)
        } else {
            (&burst, burst_power_w)
        };
        if governor.is_throttled() && first_throttle.is_none() {
            first_throttle = Some((steps, now));
        }
        trace.push(TracePoint {
            time_secs: now,
            temp_c: thermal.temp_c,
            clock_mult: governor.clock_mult(device),
        });
        thermal.step(device, power_w, point.step_secs);
        peak_temp_c = peak_temp_c.max(thermal.temp_c);
        now += point.step_secs;
        tokens += batch as f64;
        steps += 1;
    }
    let stride = trace.len().div_ceil(TRACE_POINTS).max(1);
    let trace = trace
        .into_iter()
        .step_by(stride)
        .collect::<Vec<TracePoint>>();
    Ok(SustainedCurve {
        device: device.arch.soc_label().to_string(),
        model: burst.model.clone(),
        batch,
        ctx_len,
        steps,
        burst_tokens_per_sec: burst.tokens_per_sec,
        sustained_tokens_per_sec: sustained.tokens_per_sec,
        avg_tokens_per_sec: if now > 0.0 { tokens / now } else { 0.0 },
        burst_power_w,
        sustained_power_w,
        burst_tokens_per_joule: burst.tokens_per_sec / burst_power_w,
        sustained_tokens_per_joule: sustained.tokens_per_sec / sustained_power_w,
        first_throttle_step: first_throttle.map(|(s, _)| s),
        first_throttle_secs: first_throttle.map(|(_, t)| t),
        peak_temp_c,
        final_temp_c: thermal.temp_c,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heating_approaches_the_equilibrium_temperature() {
        let d = DeviceProfile::v75();
        let mut s = ThermalState::ambient(&d);
        let power = 4.0;
        let eq = d.equilibrium_temp_c(power);
        for _ in 0..200_000 {
            s.step(&d, power, 0.01);
        }
        // 2000 s >> tau (30 s): within a tenth of a degree of equilibrium.
        assert!((s.temp_c - eq).abs() < 0.1, "{} vs eq {}", s.temp_c, eq);
    }

    #[test]
    fn idle_die_relaxes_to_ambient_with_the_rc_time_constant() {
        let d = DeviceProfile::v75();
        let mut s = ThermalState {
            temp_c: d.ambient_temp_c + 20.0,
        };
        let tau = d.thermal_time_constant_secs();
        let mut elapsed = 0.0;
        while elapsed < tau {
            s.step(&d, 0.0, 0.01);
            elapsed += 0.01;
        }
        // After one time constant the excess has decayed to ~1/e (= 7.36
        // of the initial 20 degrees); Euler at dt << tau tracks closely.
        let excess = s.temp_c - d.ambient_temp_c;
        assert!(
            (excess - 20.0 / 1.0f64.exp()).abs() < 0.05,
            "excess {excess}"
        );
        while elapsed < 8.0 * tau {
            s.step(&d, 0.0, 0.01);
            elapsed += 0.01;
        }
        assert!(s.temp_c - d.ambient_temp_c < 0.02, "{}", s.temp_c);
    }

    #[test]
    fn step_returns_the_exact_dissipated_joules() {
        let d = DeviceProfile::v79();
        let mut s = ThermalState {
            temp_c: d.ambient_temp_c + 10.0,
        };
        let before = s.temp_c;
        let dissipated = s.step(&d, 3.5, 0.25);
        let joules_in = 3.5 * 0.25;
        let stored = d.thermal_capacitance_j_per_c * (s.temp_c - before);
        assert!(
            (joules_in - stored - dissipated).abs() < 1e-12,
            "in {joules_in} stored {stored} dissipated {dissipated}"
        );
        assert!((dissipated - 0.25 * 10.0 / d.thermal_resistance_c_per_w).abs() < 1e-12);
    }

    #[test]
    fn governor_throttles_at_cap_and_resumes_below_hysteresis() {
        let d = DeviceProfile::v73();
        let mut g = DvfsGovernor::new();
        assert!(!g.is_throttled());
        assert_eq!(g.clock_mult(&d), 1.0);

        g.observe(&d, d.throttle_temp_c - 0.1);
        assert!(!g.is_throttled());
        g.observe(&d, d.throttle_temp_c);
        assert!(g.is_throttled());
        assert_eq!(g.clock_mult(&d), d.sustained_clock_mult);

        // Inside the hysteresis band: stays throttled.
        g.observe(&d, d.throttle_temp_c - d.throttle_hysteresis_c + 0.1);
        assert!(g.is_throttled());
        // Below the band: back to burst.
        g.observe(&d, d.throttle_temp_c - d.throttle_hysteresis_c - 0.1);
        assert!(!g.is_throttled());
    }

    #[test]
    fn sustained_curve_throttles_and_settles_under_the_cap() {
        let d = DeviceProfile::v75();
        let curve = sustained_decode_curve(&d, ModelId::Qwen3B, 8, 1024, 120.0).unwrap();
        assert!(
            curve.first_throttle_step.is_some(),
            "V75 never throttled: peak {} C vs cap {} C",
            curve.peak_temp_c,
            d.throttle_temp_c
        );
        // Cap + at most one burst step of slack.
        let slack = curve.burst_power_w * (curve.batch as f64 / curve.burst_tokens_per_sec)
            / d.thermal_capacitance_j_per_c;
        assert!(
            curve.peak_temp_c <= d.throttle_temp_c + slack,
            "peak {} cap {} slack {}",
            curve.peak_temp_c,
            d.throttle_temp_c,
            slack
        );
        assert!(curve.sustained_tokens_per_sec < curve.burst_tokens_per_sec);
        // The sustained rate is at least the clock multiplier times burst:
        // fixed session-switch costs do not dilate, so throughput cannot
        // degrade by more than the clock ratio.
        assert!(
            curve.sustained_tokens_per_sec
                >= curve.burst_tokens_per_sec * d.sustained_clock_mult * 0.999,
            "sustained {} vs burst {} * mult {}",
            curve.sustained_tokens_per_sec,
            curve.burst_tokens_per_sec,
            d.sustained_clock_mult
        );
        // The long-run average sits between the two operating points.
        assert!(curve.avg_tokens_per_sec < curve.burst_tokens_per_sec);
        assert!(curve.avg_tokens_per_sec > curve.sustained_tokens_per_sec * 0.999);
        assert!(curve.sustained_power_w < curve.burst_power_w);
        assert!(curve.trace.len() <= 200 && !curve.trace.is_empty());
    }

    #[test]
    fn efficiency_surface_sustained_point_is_slower_but_bounded() {
        let d = DeviceProfile::v75();
        // Duration 0: operating points only, no trajectory.
        let panel: Vec<SustainedCurve> = [1, 8, 16]
            .iter()
            .filter_map(|&batch| {
                sustained_decode_curve(&d, ModelId::Qwen1_5B, batch, 1024, 0.0).ok()
            })
            .collect();
        assert_eq!(panel.len(), 3);
        for p in &panel {
            assert!(
                p.sustained_tokens_per_sec < p.burst_tokens_per_sec,
                "batch {}",
                p.batch
            );
            // Fixed switch costs mean degradation never exceeds the clock
            // ratio itself.
            assert!(
                p.sustained_tokens_per_sec
                    >= p.burst_tokens_per_sec * d.sustained_clock_mult * 0.999,
                "batch {}: sustained {} burst {}",
                p.batch,
                p.sustained_tokens_per_sec,
                p.burst_tokens_per_sec
            );
            assert!(p.burst_tokens_per_joule > 0.0);
            assert!(p.sustained_tokens_per_joule > 0.0);
        }
        // Batching is the efficiency lever on both operating points.
        assert!(panel[1].burst_tokens_per_joule > 2.0 * panel[0].burst_tokens_per_joule);
        assert!(panel[1].sustained_tokens_per_joule > 2.0 * panel[0].sustained_tokens_per_joule);
    }

    #[test]
    fn cold_short_run_never_throttles() {
        let d = DeviceProfile::v79();
        // Two seconds of decode barely warms a 5.5 J/C die.
        let curve = sustained_decode_curve(&d, ModelId::Qwen1_5B, 8, 1024, 2.0).unwrap();
        assert!(curve.first_throttle_step.is_none());
        let rel = (curve.avg_tokens_per_sec - curve.burst_tokens_per_sec).abs()
            / curve.burst_tokens_per_sec;
        assert!(
            rel < 1e-9,
            "avg {} burst {}",
            curve.avg_tokens_per_sec,
            curve.burst_tokens_per_sec
        );
        assert!(curve.peak_temp_c < d.throttle_temp_c);
    }
}
