//! Admission control and dispatch planning for the serving gateway.
//!
//! Three pieces live here:
//!
//! - [`FleetSpec`]/[`WorkerSpec`]/[`GatewayConfig`] — the static shape of
//!   a deployment: which devices serve, resident or weight-streamed,
//!   with what batch/context capacity, behind what queue and prefill
//!   policy;
//! - [`AdmissionQueue`] — the bounded priority queue in front of the
//!   fleet. Higher-priority requests pop first; on overflow the *worst*
//!   queued request is evicted (or the newcomer rejected if it is the
//!   worst), so a low-priority burst cannot starve the interactive
//!   tenant;
//! - [`WorkerOracle`] — the dispatcher's cost model, built once per
//!   worker at gateway construction by probing the
//!   [`crate::backend::Backend`]: `fits` gates the deployment (a worker
//!   whose device cannot hold the model at the configured batch/context
//!   fails construction), and the measured decode/prefill points feed
//!   [`predicted_completion_secs`], the minimized quantity when placing
//!   a request.

use edgellm::config::ModelId;
use hexsim::prelude::*;

use crate::backend::{Backend, NpuSimBackend};
use crate::power::PowerModel;
use crate::serve::arrivals::Request;
use crate::serve::metrics::SloConfig;

/// How the gateway feeds a newly admitted prompt into a busy worker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PrefillMode {
    /// The whole prompt runs as one pass; every active decode on the
    /// worker stalls for the pass's duration (the static-graph
    /// behavior).
    Monolithic,
    /// The prompt is split into chunks of at most `chunk_tokens`; each
    /// chunk rides one decode step's layer walk, charged via the fused
    /// critical-path model
    /// ([`edgellm::overlap::StepStages::merged`]) — decode TBT grows by
    /// the chunk's compute instead of the whole prompt's.
    Chunked {
        /// Maximum prompt tokens fed per decode step.
        chunk_tokens: usize,
    },
}

/// One serving device in the fleet.
#[derive(Clone, Debug)]
pub struct WorkerSpec {
    /// Device profile the worker runs on.
    pub device: DeviceProfile,
    /// Whether the worker deploys the weight-streaming plan (hot/cold
    /// hierarchy, DMA prefetch lane) instead of a resident shard plan.
    pub streaming: bool,
    /// KV slot pool size — the maximum decode batch.
    pub max_batch: usize,
    /// Per-slot context capacity in tokens (prompt + generated).
    pub max_ctx: usize,
}

impl WorkerSpec {
    /// A resident-plan worker with the gateway's default capacity.
    pub fn resident(device: DeviceProfile) -> Self {
        WorkerSpec {
            device,
            streaming: false,
            max_batch: 8,
            max_ctx: 1024,
        }
    }

    /// A weight-streamed worker (cold layers fetched through the DMA
    /// prefetch lane) with the gateway's default capacity.
    pub fn streamed(device: DeviceProfile) -> Self {
        WorkerSpec {
            streaming: true,
            ..WorkerSpec::resident(device)
        }
    }

    /// The overlap-aware NPU runtime this worker deploys: the streamed
    /// backend or the resident one, whose
    /// [`NpuSimBackend::shard_plan`] both the dispatch oracle and the
    /// serving loop build from.
    pub(crate) fn backend(&self) -> NpuSimBackend {
        if self.streaming {
            NpuSimBackend::streamed(self.device.clone())
        } else {
            NpuSimBackend::overlapped(self.device.clone())
        }
    }
}

/// The fleet: one model served across a set of workers.
#[derive(Clone, Debug)]
pub struct FleetSpec {
    /// Model every worker serves.
    pub model: ModelId,
    /// Serving devices.
    pub workers: Vec<WorkerSpec>,
}

impl FleetSpec {
    /// A single-worker fleet.
    pub fn single(model: ModelId, device: DeviceProfile, streaming: bool) -> Self {
        let base = WorkerSpec::resident(device);
        FleetSpec {
            model,
            workers: vec![WorkerSpec { streaming, ..base }],
        }
    }

    /// The three-generation heterogeneous fleet: V79 and V75 on resident
    /// plans plus a V73 running the weight-streamed deployment.
    pub fn heterogeneous(model: ModelId) -> Self {
        FleetSpec {
            model,
            workers: vec![
                WorkerSpec::resident(DeviceProfile::v79()),
                WorkerSpec::resident(DeviceProfile::v75()),
                WorkerSpec::streamed(DeviceProfile::v73()),
            ],
        }
    }
}

/// How the dispatcher treats worker die temperature. The physics runs
/// under both policies: dies heat per step and each worker's DVFS
/// governor throttles at the cap. Below the cap it changes no number.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ThermalPolicy {
    /// The dispatcher predicts with burst-clock oracles: it cannot see
    /// temperature. The baseline the CI gate compares against.
    #[default]
    Blind,
    /// The dispatcher projects each worker's temperature trajectory when
    /// predicting completion, steering sustained load toward workers
    /// with thermal headroom.
    Aware,
}

/// How the dispatcher orders waiting requests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SchedulingPolicy {
    /// Strict priority: highest tenant priority first, ties by arrival
    /// then id. Every pre-WFQ serving number reproduces bit-for-bit
    /// under this default.
    #[default]
    StrictPriority,
    /// Weighted fair queueing over served token budgets: each tenant
    /// carries a virtual time that advances by `tokens / weight` as the
    /// fleet serves it ([`WfqState`]), and the dispatcher serves the
    /// backlogged tenant with the smallest virtual time — long-run
    /// served-token shares converge to the weight ratio, so a
    /// high-priority overload cannot starve the batch tenant to zero.
    Wfq,
}

/// Whether the dispatcher may pause an active decode mid-stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PreemptionPolicy {
    /// Never preempt: an arrival waits for a KV slot to free naturally.
    #[default]
    Disabled,
    /// A waiting request may pause the worst active decode of *strictly
    /// lower* priority: the victim's KV is snapshotted
    /// ([`edgellm::PreemptedSeq`]), its slot freed for the newcomer, and
    /// it resumes later — on the same worker, KV intact — producing
    /// output bit-identical to an uninterrupted run.
    Enabled,
}

/// Gateway policy knobs.
#[derive(Clone, Copy, Debug)]
pub struct GatewayConfig {
    /// Admission queue capacity; arrivals beyond it evict the worst
    /// queued request or are rejected outright.
    pub queue_capacity: usize,
    /// Prompt prefill policy.
    pub prefill: PrefillMode,
    /// Latency targets goodput is measured against.
    pub slo: SloConfig,
    /// Whether the dispatcher sees die temperature.
    pub thermal: ThermalPolicy,
    /// Queue ordering discipline.
    pub scheduling: SchedulingPolicy,
    /// Mid-stream decode preemption.
    pub preemption: PreemptionPolicy,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            queue_capacity: 8,
            prefill: PrefillMode::Chunked { chunk_tokens: 32 },
            slo: SloConfig::default(),
            thermal: ThermalPolicy::default(),
            scheduling: SchedulingPolicy::default(),
            preemption: PreemptionPolicy::default(),
        }
    }
}

/// Per-tenant virtual-time accounting for weighted fair queueing.
///
/// A tenant's virtual time advances by `tokens / weight` whenever the
/// fleet serves its tokens (prompt tokens charged with the first token,
/// one per decode emission after). Serving the smallest virtual time
/// first makes long-run served-token shares track the weight ratio
/// regardless of arrival pattern — the classic fair-queueing invariant.
#[derive(Clone, Debug)]
pub struct WfqState {
    vtime: Vec<f64>,
    weight: Vec<f64>,
    served: Vec<u64>,
}

impl WfqState {
    /// Zeroed accounting for tenants with the given (positive) weights.
    pub fn new(weights: &[f64]) -> Self {
        assert!(
            weights.iter().all(|w| *w > 0.0),
            "tenant weights must be positive"
        );
        WfqState {
            vtime: vec![0.0; weights.len()],
            weight: weights.to_vec(),
            served: vec![0; weights.len()],
        }
    }

    /// Number of tenants tracked.
    pub fn tenants(&self) -> usize {
        self.vtime.len()
    }

    /// Tokens (prompt + generated) served to the tenant so far.
    pub fn served_tokens(&self, tenant: usize) -> u64 {
        self.served[tenant]
    }

    /// Virtual times of every tenant, in tenant order — the snapshot the
    /// dispatcher orders one scan against.
    pub fn vtimes(&self) -> &[f64] {
        &self.vtime
    }

    /// Charges `tokens` of service to `tenant`, advancing its virtual
    /// time by `tokens / weight`.
    pub fn charge(&mut self, tenant: usize, tokens: u64) {
        self.vtime[tenant] += tokens as f64 / self.weight[tenant];
        self.served[tenant] += tokens;
    }

    /// Re-floors a tenant's virtual time to the minimum of the others'
    /// when it becomes backlogged after an idle stretch: an idle tenant
    /// must not bank unbounded credit it can later spend starving the
    /// tenants that kept the fleet busy.
    pub fn wake(&mut self, tenant: usize) {
        let floor = self
            .vtime
            .iter()
            .enumerate()
            .filter(|&(t, _)| t != tenant)
            .map(|(_, v)| *v)
            .fold(f64::INFINITY, f64::min);
        if floor.is_finite() && self.vtime[tenant] < floor {
            self.vtime[tenant] = floor;
        }
    }
}

/// The dispatcher's per-worker cost model, measured once at gateway
/// construction through the [`Backend`] trait.
#[derive(Clone, Debug)]
pub struct WorkerOracle {
    /// Display label: SoC plus deployment variant.
    pub name: String,
    /// NPU sessions the deployment spans (from [`Backend::fits`]).
    pub sessions: usize,
    /// Measured wall seconds of one full-batch decode step.
    pub decode_step_secs: f64,
    /// Measured prefill throughput in tokens/second.
    pub prefill_tps: f64,
    /// The worker's device, carried for thermal projection (RC constants,
    /// DVFS operating points).
    pub device: DeviceProfile,
    /// Measured full-batch decode step at the sustained clock point.
    pub sustained_step_secs: f64,
    /// Average device watts of the burst-clock decode step.
    pub burst_power_w: f64,
    /// Average device watts of the sustained-clock decode step.
    pub sustained_power_w: f64,
}

/// Probes one worker through the overlap-aware NPU backend: `fits` gates
/// the deployment (propagating e.g. [`SimError::VaSpaceExceeded`] when
/// the device cannot hold the model), then one decode step at the full
/// batch and one representative prefill are measured as the dispatch
/// oracle. A worker with no KV slot (`max_batch == 0`) or with room for
/// fewer than 8 context tokens is [`SimError::InvalidConfig`].
pub fn plan_worker(model: ModelId, spec: &WorkerSpec) -> SimResult<WorkerOracle> {
    if spec.max_batch == 0 {
        return Err(SimError::InvalidConfig {
            reason: "worker needs at least one KV slot".into(),
        });
    }
    if spec.max_ctx < 8 {
        return Err(SimError::InvalidConfig {
            reason: format!("worker context capacity {} is below 8 tokens", spec.max_ctx),
        });
    }
    let backend = spec.backend();
    let fit = backend.fits(model, spec.max_batch, spec.max_ctx)?;
    let decode = backend.decode(model, spec.max_batch, spec.max_ctx)?;
    let prefill = backend.prefill(model, 256.min(spec.max_ctx / 2))?;
    // The same deployment repriced at the sustained DVFS point: every
    // engine rate scales by the clock multiplier, dynamic power by its
    // cube, fixed session-switch costs stay fixed.
    let hot_backend = NpuSimBackend {
        device: spec.device.at_clock(spec.device.sustained_clock_mult),
        ..backend
    };
    let sustained = hot_backend.decode(model, spec.max_batch, spec.max_ctx)?;
    let burst_power_w = PowerModel::new(spec.device.clone()).step_power(&decode);
    let sustained_power_w = PowerModel::new(hot_backend.device).step_power(&sustained);
    let variant = if spec.streaming { " streamed" } else { "" };
    Ok(WorkerOracle {
        name: format!("{}{variant}", spec.device.arch.soc_label()),
        sessions: fit.sessions,
        decode_step_secs: decode.step_secs,
        prefill_tps: prefill.tokens_per_sec,
        device: spec.device.clone(),
        sustained_step_secs: sustained.step_secs,
        burst_power_w,
        sustained_power_w,
    })
}

/// Predicted completion time of `req` if placed on a worker that frees
/// up at `free_at_secs`: prefill at the measured prompt throughput, then
/// the full decode budget at the measured full-batch step time. The
/// dispatcher places each request on the worker minimizing this.
pub fn predicted_completion_secs(oracle: &WorkerOracle, free_at_secs: f64, req: &Request) -> f64 {
    free_at_secs
        + req.prompt_len as f64 / oracle.prefill_tps
        + req.max_new as f64 * oracle.decode_step_secs
}

/// Thermal-aware completion prediction: like
/// [`predicted_completion_secs`], but the worker's projected temperature
/// trajectory prices the work. A throttled worker runs everything at the
/// sustained rate; a burst worker runs until its die is projected to hit
/// the throttle cap — the analytic RC heating time
/// `t = tau * ln((T_eq - T) / (T_eq - T_cap))` — and the remainder at the
/// sustained rate. This is what lets the dispatcher route sustained load
/// toward workers with thermal headroom *before* they throttle.
pub fn predicted_completion_secs_thermal(
    oracle: &WorkerOracle,
    free_at_secs: f64,
    temp_c: f64,
    throttled: bool,
    req: &Request,
) -> f64 {
    let d = &oracle.device;
    // Seconds of work if the whole request ran at burst clocks.
    let burst_work =
        req.prompt_len as f64 / oracle.prefill_tps + req.max_new as f64 * oracle.decode_step_secs;
    // Burst-to-sustained dilation, measured (not assumed): fixed switch
    // costs make this slightly less than 1 / sustained_clock_mult.
    let dilation = oracle.sustained_step_secs / oracle.decode_step_secs;
    if throttled {
        return free_at_secs + burst_work * dilation;
    }
    let t_eq = d.equilibrium_temp_c(oracle.burst_power_w);
    if t_eq <= d.throttle_temp_c {
        // Burst never reaches the cap on this device: all-burst forever.
        return free_at_secs + burst_work;
    }
    let burst_secs_left = if temp_c >= d.throttle_temp_c {
        0.0
    } else {
        // T(t) = T_eq + (T - T_eq) e^{-t/tau}; solve T(t) = cap.
        d.thermal_time_constant_secs() * ((t_eq - temp_c) / (t_eq - d.throttle_temp_c)).ln()
    };
    if burst_work <= burst_secs_left {
        free_at_secs + burst_work
    } else {
        free_at_secs + burst_secs_left + (burst_work - burst_secs_left) * dilation
    }
}

/// A request waiting for fleet capacity.
#[derive(Clone, Copy, Debug)]
pub struct QueueEntry {
    /// Index into the gateway's trace.
    pub req: usize,
    /// Tenant priority — the strict-priority ordering key.
    pub priority: u8,
    /// Arrival time, the first tie-break.
    pub arrival_secs: f64,
    /// Trace-unique request id, the final tie-break.
    pub id: u64,
    /// Tenant index (first-appearance order) — the WFQ ordering key
    /// routes through the tenant's virtual time.
    pub tenant: usize,
}

/// `true` when `a` should be served before `b` under strict priority:
/// highest priority first, then earliest arrival, then lowest id.
pub fn strict_before(a: &QueueEntry, b: &QueueEntry) -> bool {
    (b.priority, a.arrival_secs, a.id) < (a.priority, b.arrival_secs, b.id)
}

/// `true` when `a` should be served before `b` under weighted fair
/// queueing against the given per-tenant virtual-time snapshot: smallest
/// tenant virtual time first, then earliest arrival, then lowest id.
pub fn wfq_before(vtimes: &[f64], a: &QueueEntry, b: &QueueEntry) -> bool {
    (vtimes[a.tenant], a.arrival_secs, a.id) < (vtimes[b.tenant], b.arrival_secs, b.id)
}

/// Bounded admission queue in front of the fleet.
///
/// The ordering discipline is supplied per call (`strict_before` or a
/// [`wfq_before`] closure over live virtual times — WFQ keys change as
/// tokens are served, so entries cannot be ordered at insertion). Every
/// comparator must be total and deterministic; on overflow the
/// worst-ordered request (queued or newcomer) is rejected.
#[derive(Debug)]
pub struct AdmissionQueue {
    items: Vec<QueueEntry>,
    capacity: usize,
    peak_depth: usize,
}

impl AdmissionQueue {
    /// An empty queue holding at most `capacity` requests.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "queue needs capacity");
        AdmissionQueue {
            items: Vec::new(),
            capacity,
            peak_depth: 0,
        }
    }

    /// Offers a request under the given ordering. Returns `None` on
    /// acceptance, or the trace index of the request that was rejected to
    /// make room (possibly the offered one).
    pub fn offer(
        &mut self,
        cand: QueueEntry,
        before: &dyn Fn(&QueueEntry, &QueueEntry) -> bool,
    ) -> Option<usize> {
        if self.items.len() < self.capacity {
            self.items.push(cand);
            self.peak_depth = self.peak_depth.max(self.items.len());
            return None;
        }
        // Full: evict whichever orders last among queued + candidate.
        let worst = self
            .items
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| {
                if before(a, b) {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Greater
                }
            })
            .map(|(i, _)| i)
            .expect("queue is full, hence non-empty");
        if before(&cand, &self.items[worst]) {
            let evicted = std::mem::replace(&mut self.items[worst], cand);
            Some(evicted.req)
        } else {
            Some(cand.req)
        }
    }

    /// Removes and returns the best-ordered waiting request.
    pub fn pop(&mut self, before: &dyn Fn(&QueueEntry, &QueueEntry) -> bool) -> Option<usize> {
        let i = self.best_index(before)?;
        Some(self.items.swap_remove(i).req)
    }

    /// The waiting entries, in storage (not service) order — the
    /// dispatcher's candidate scan orders a copy itself.
    pub fn entries(&self) -> &[QueueEntry] {
        &self.items
    }

    /// Removes the entry for trace index `req`, if queued.
    pub fn remove(&mut self, req: usize) -> Option<QueueEntry> {
        let i = self.items.iter().position(|e| e.req == req)?;
        Some(self.items.swap_remove(i))
    }

    /// Deepest the queue has been.
    pub fn peak_depth(&self) -> usize {
        self.peak_depth
    }

    /// Whether nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    fn best_index(&self, before: &dyn Fn(&QueueEntry, &QueueEntry) -> bool) -> Option<usize> {
        let mut best: Option<usize> = None;
        for i in 0..self.items.len() {
            match best {
                None => best = Some(i),
                Some(b) if before(&self.items[i], &self.items[b]) => best = Some(i),
                Some(_) => {}
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(req: usize, priority: u8, arrival_secs: f64, id: u64, tenant: usize) -> QueueEntry {
        QueueEntry {
            req,
            priority,
            arrival_secs,
            id,
            tenant,
        }
    }

    #[test]
    fn queue_orders_by_priority_then_arrival() {
        let mut q = AdmissionQueue::new(4);
        assert!(q.offer(entry(0, 1, 0.0, 0, 0), &strict_before).is_none());
        assert!(q.offer(entry(1, 2, 0.5, 1, 0), &strict_before).is_none());
        assert!(q.offer(entry(2, 2, 0.2, 2, 0), &strict_before).is_none());
        assert_eq!(q.pop(&strict_before), Some(2));
        assert_eq!(q.pop(&strict_before), Some(1));
        assert_eq!(q.pop(&strict_before), Some(0));
        assert_eq!(q.pop(&strict_before), None);
    }

    #[test]
    fn overflow_evicts_the_lowest_priority() {
        let mut q = AdmissionQueue::new(2);
        assert!(q.offer(entry(0, 1, 0.0, 0, 0), &strict_before).is_none());
        assert!(q.offer(entry(1, 1, 0.1, 1, 0), &strict_before).is_none());
        // A high-priority newcomer evicts the later low-priority entry.
        assert_eq!(q.offer(entry(2, 3, 0.2, 2, 1), &strict_before), Some(1));
        // A low-priority newcomer bounces off a full queue of betters.
        assert_eq!(q.offer(entry(3, 0, 0.3, 3, 2), &strict_before), Some(3));
        assert_eq!(q.entries().len(), 2);
        assert_eq!(q.peak_depth(), 2);
        assert_eq!(q.pop(&strict_before), Some(2));
        assert_eq!(q.pop(&strict_before), Some(0));
    }

    #[test]
    fn queue_remove_extracts_by_trace_index() {
        let mut q = AdmissionQueue::new(4);
        assert!(q.offer(entry(7, 1, 0.0, 0, 0), &strict_before).is_none());
        assert!(q.offer(entry(9, 2, 0.1, 1, 1), &strict_before).is_none());
        assert_eq!(q.remove(9).map(|e| e.id), Some(1));
        assert!(q.remove(9).is_none());
        assert_eq!(q.entries().len(), 1);
        assert_eq!(q.entries()[0].req, 7);
    }

    #[test]
    fn wfq_orders_by_virtual_time_not_priority() {
        // Tenant 0 outranks tenant 1 on priority but has been served more
        // tokens per unit weight: WFQ serves the starved tenant first,
        // strict priority would not.
        let mut wfq = WfqState::new(&[3.0, 1.0]);
        wfq.charge(0, 90); // vtime 30
        wfq.charge(1, 20); // vtime 20
        let a = entry(0, 2, 0.0, 0, 0);
        let b = entry(1, 1, 0.5, 1, 1);
        assert!(strict_before(&a, &b));
        let vt = wfq.vtimes().to_vec();
        let before = |x: &QueueEntry, y: &QueueEntry| wfq_before(&vt, x, y);
        assert!(before(&b, &a));
        assert!(!before(&a, &b));
        // The same discipline drives overflow eviction: a full queue
        // evicts the highest-virtual-time tenant's request.
        let mut q = AdmissionQueue::new(1);
        assert!(q.offer(a, &before).is_none());
        assert_eq!(q.offer(b, &before), Some(0));
        assert_eq!(q.entries()[0].req, 1);
    }

    #[test]
    fn wfq_charge_advances_by_inverse_weight_and_wake_refloors() {
        let mut wfq = WfqState::new(&[2.0, 1.0]);
        wfq.charge(0, 10);
        wfq.charge(1, 10);
        assert_eq!(wfq.vtimes()[0], 5.0);
        assert_eq!(wfq.vtimes()[1], 10.0);
        assert_eq!(wfq.served_tokens(0), 10);
        assert_eq!(wfq.served_tokens(1), 10);
        // Tenant 0 idles while tenant 1 racks up service; on waking,
        // tenant 0's virtual time jumps to the floor (no banked credit)…
        wfq.charge(1, 90);
        wfq.wake(0);
        assert_eq!(wfq.vtimes()[0], 100.0);
        // …but a wake never rewinds a tenant already ahead.
        wfq.wake(1);
        assert_eq!(wfq.vtimes()[1], 100.0);
        wfq.charge(1, 1);
        wfq.wake(1);
        assert_eq!(wfq.vtimes()[1], 101.0);
    }

    #[test]
    fn oracle_prefers_the_faster_device_when_both_are_free() {
        use crate::serve::arrivals::TenantSpec;
        let model = ModelId::Qwen1_5B;
        let fast = plan_worker(model, &WorkerSpec::resident(DeviceProfile::v79())).unwrap();
        let slow = plan_worker(model, &WorkerSpec::resident(DeviceProfile::v73())).unwrap();
        let req =
            &crate::serve::arrivals::replay_trace(&TenantSpec::interactive("t"), &[(0.0, 64, 16)])
                [0];
        assert!(
            predicted_completion_secs(&fast, 0.0, req) < predicted_completion_secs(&slow, 0.0, req)
        );
        // But a deeply backlogged fast worker loses to a free slow one.
        assert!(
            predicted_completion_secs(&fast, 60.0, req)
                > predicted_completion_secs(&slow, 0.0, req)
        );
    }

    #[test]
    fn thermal_prediction_agrees_with_blind_on_a_cold_die() {
        use crate::serve::arrivals::TenantSpec;
        let model = ModelId::Qwen1_5B;
        let oracle = plan_worker(model, &WorkerSpec::resident(DeviceProfile::v79())).unwrap();
        let d = &oracle.device;
        let req =
            &crate::serve::arrivals::replay_trace(&TenantSpec::interactive("t"), &[(0.0, 64, 16)])
                [0];
        // A short request on a cold die finishes before the cap: the
        // thermal projection must not inflate it.
        let blind = predicted_completion_secs(&oracle, 0.0, req);
        let cold = predicted_completion_secs_thermal(&oracle, 0.0, d.ambient_temp_c, false, req);
        assert_eq!(cold, blind);

        // At the cap, everything runs at the sustained rate.
        let hot = predicted_completion_secs_thermal(&oracle, 0.0, d.throttle_temp_c, false, req);
        let dilation = oracle.sustained_step_secs / oracle.decode_step_secs;
        assert!((hot - blind * dilation).abs() < 1e-12, "hot {hot}");
        assert!(hot > blind);

        // A governor already throttled prices identically to a die at cap.
        let throttled =
            predicted_completion_secs_thermal(&oracle, 0.0, d.throttle_temp_c - 1.0, true, req);
        assert_eq!(throttled, hot);

        // Between ambient and cap the prediction interpolates.
        let warm =
            predicted_completion_secs_thermal(&oracle, 0.0, d.throttle_temp_c - 0.05, false, req);
        assert!(
            warm > blind && warm <= hot,
            "warm {warm} in ({blind}, {hot}]"
        );
    }

    #[test]
    fn thermal_oracle_carries_both_operating_points() {
        let oracle = plan_worker(
            ModelId::Qwen1_5B,
            &WorkerSpec::resident(DeviceProfile::v75()),
        )
        .unwrap();
        let d = &oracle.device;
        assert!(oracle.sustained_step_secs > oracle.decode_step_secs);
        // Dilation bounded by the clock ratio (fixed switches only help).
        assert!(
            oracle.sustained_step_secs <= oracle.decode_step_secs / d.sustained_clock_mult * 1.001
        );
        // Cube-law dynamic power: the sustained point draws fewer watts.
        assert!(oracle.sustained_power_w < oracle.burst_power_w);
        assert!(oracle.sustained_power_w > d.base_power_w);
    }

    #[test]
    fn fits_gate_rejects_impossible_workers() {
        // A device capped at one session cannot hold Qwen-3B resident:
        // plan_worker propagates the Backend::fits rejection.
        let mut capped = DeviceProfile::v73();
        capped.max_sessions = 1;
        let err = plan_worker(ModelId::Qwen3B, &WorkerSpec::resident(capped.clone()));
        assert!(err.is_err());
        // The weight-streamed deployment of the same model fits the one
        // session — the capacity relief streaming exists for.
        let ok = plan_worker(ModelId::Qwen3B, &WorkerSpec::streamed(capped)).unwrap();
        assert_eq!(ok.sessions, 1);
        assert!(ok.decode_step_secs > 0.0 && ok.prefill_tps > 0.0);
    }
}
