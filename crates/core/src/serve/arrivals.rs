//! Arrival processes for the serving gateway: seeded Poisson generation
//! over per-tenant specs, and replay of explicit traces.
//!
//! A [`TenantSpec`] describes one request class — its admission priority
//! and the ranges its prompt and output lengths are drawn from. The
//! output length is the *realized* generation length (where the EOS
//! token lands); the per-request decode budget is the range's upper
//! bound, so a fixed-batch executor that cannot retire on EOS pays the
//! full budget while the gateway's continuous batching frees the slot at
//! the realized length.
//!
//! [`poisson_trace`] draws exponential inter-arrival times at a total
//! rate and assigns each arrival to a tenant by weight — fully seeded,
//! so every run of a given `(tenants, rate, n, seed)` tuple produces the
//! identical trace (the CI gate depends on this). [`bursty_trace`] layers
//! production-like structure on top: an on/off Markov-modulated rate with
//! a diurnal envelope, sampled exactly by thinning. Both pick each
//! arrival's tenant and lengths the same way. [`replay_trace`] wraps
//! explicit `(arrival, prompt, output)` tuples for trace-driven tests,
//! and [`merge_traces`] composes traces without colliding ids.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One request class in the arrival mix.
#[derive(Clone, Debug)]
pub struct TenantSpec {
    /// Tenant label, carried through to the per-tenant report.
    pub name: String,
    /// Admission priority: higher values are served first and survive
    /// queue overflow longer.
    pub priority: u8,
    /// Relative share of arrivals assigned to this tenant.
    pub weight: f64,
    /// Inclusive prompt-length range in tokens.
    pub prompt_lens: (usize, usize),
    /// Inclusive realized output-length range in tokens (the EOS point);
    /// the decode *budget* of every request is the upper bound.
    pub output_lens: (usize, usize),
}

impl TenantSpec {
    /// A latency-sensitive chat tenant: short prompts, short outputs,
    /// high priority.
    pub fn interactive(name: &str) -> Self {
        TenantSpec {
            name: name.to_string(),
            priority: 2,
            weight: 3.0,
            prompt_lens: (32, 96),
            output_lens: (4, 24),
        }
    }

    /// A throughput-oriented batch tenant: long prompts, low priority —
    /// the tenant whose monolithic prefill stalls everyone else's decode.
    pub fn batch(name: &str) -> Self {
        TenantSpec {
            name: name.to_string(),
            priority: 1,
            weight: 1.0,
            prompt_lens: (256, 512),
            output_lens: (8, 32),
        }
    }

    /// Request `id` of this tenant, arriving at `arrival_secs`, with the
    /// tenant's decode budget.
    fn request(&self, id: u64, arrival_secs: f64, prompt_len: usize, output_len: usize) -> Request {
        Request {
            id,
            tenant: self.name.clone(),
            priority: self.priority,
            arrival_secs,
            prompt_len,
            output_len,
            max_new: self.output_lens.1,
            weight: self.weight,
        }
    }
}

/// One serving request: arrival time plus the prompt/output shape drawn
/// from its tenant.
#[derive(Clone, Debug)]
pub struct Request {
    /// Stable id, assigned in arrival order from zero.
    pub id: u64,
    /// Name of the tenant the request belongs to.
    pub tenant: String,
    /// Admission priority inherited from the tenant.
    pub priority: u8,
    /// Arrival time in simulated seconds.
    pub arrival_secs: f64,
    /// Prompt length in tokens.
    pub prompt_len: usize,
    /// Realized output length in tokens (first token included) — where
    /// the EOS lands. Always `<= max_new`.
    pub output_len: usize,
    /// Decode budget in tokens: the slot is reclaimed at this length even
    /// if no EOS fired.
    pub max_new: usize,
    /// Fair-share weight inherited from the tenant — the denominator of
    /// the WFQ virtual-time advance.
    pub weight: f64,
}

fn draw_range(rng: &mut StdRng, (lo, hi): (usize, usize)) -> usize {
    assert!(
        lo >= 1 && hi >= lo,
        "length range must be ordered, got {lo}..={hi}"
    );
    if lo == hi {
        lo
    } else {
        rng.gen_range(lo..=hi)
    }
}

/// The tenants' total weight.
///
/// # Panics
///
/// Panics unless every weight is positive.
fn checked_total_weight(tenants: &[TenantSpec]) -> f64 {
    let total: f64 = tenants.iter().map(|t| t.weight).sum();
    assert!(
        total > 0.0 && tenants.iter().all(|t| t.weight > 0.0),
        "tenant weights must be positive"
    );
    total
}

/// Request `id`, arriving at `arrival_secs`: picks its tenant by weight,
/// then draws its prompt length and then its output length from that
/// tenant's ranges.
fn draw_request(
    rng: &mut StdRng,
    tenants: &[TenantSpec],
    total_weight: f64,
    id: u64,
    arrival_secs: f64,
) -> Request {
    let mut pick = rng.gen_range(0.0..total_weight);
    let tenant = tenants
        .iter()
        .find(|t| {
            pick -= t.weight;
            pick < 0.0
        })
        .unwrap_or(&tenants[tenants.len() - 1]);
    let prompt_len = draw_range(rng, tenant.prompt_lens);
    let output_len = draw_range(rng, tenant.output_lens);
    tenant.request(id, arrival_secs, prompt_len, output_len)
}

/// Generates `n` requests from a seeded Poisson process at `rate_rps`
/// total requests/second, splitting arrivals across `tenants` by weight.
/// Deterministic in `(tenants, rate_rps, n, seed)`.
///
/// # Panics
///
/// Panics on an empty tenant list, non-positive rate or weights, or
/// malformed length ranges.
pub fn poisson_trace(tenants: &[TenantSpec], rate_rps: f64, n: usize, seed: u64) -> Vec<Request> {
    assert!(!tenants.is_empty(), "need at least one tenant");
    assert!(rate_rps > 0.0, "arrival rate must be positive");
    let total_weight = checked_total_weight(tenants);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut clock = 0.0f64;
    let mut out = Vec::with_capacity(n);
    for id in 0..n as u64 {
        // Exponential inter-arrival via inverse transform; 1 - u keeps
        // the log argument strictly positive.
        let u: f64 = rng.gen_range(0.0..1.0);
        clock += -(1.0 - u).ln() / rate_rps;
        out.push(draw_request(&mut rng, tenants, total_weight, id, clock));
    }
    out
}

/// The shape of a bursty, diurnally modulated arrival process: a
/// two-state (quiet/burst) Markov-modulated Poisson process whose
/// instantaneous rate is further scaled by a sinusoid — the
/// on/off-plus-daily-cycle structure production LLM traces exhibit,
/// versus the memoryless stream [`poisson_trace`] draws.
#[derive(Clone, Copy, Debug)]
pub struct BurstSpec {
    /// Arrival rate during quiet stretches, requests/second.
    pub base_rps: f64,
    /// Arrival rate inside a burst, requests/second.
    pub burst_rps: f64,
    /// Mean quiet-state dwell time in seconds (exponential).
    pub mean_quiet_secs: f64,
    /// Mean burst dwell time in seconds (exponential).
    pub mean_burst_secs: f64,
    /// Period of the sinusoidal diurnal envelope in seconds; `0` turns
    /// the envelope off.
    pub diurnal_period_secs: f64,
    /// Envelope amplitude in `[0, 1)`: the rate swings between
    /// `(1 - depth)` and `(1 + depth)` times the state rate.
    pub diurnal_depth: f64,
}

impl Default for BurstSpec {
    fn default() -> Self {
        BurstSpec {
            base_rps: 1.0,
            burst_rps: 10.0,
            mean_quiet_secs: 8.0,
            mean_burst_secs: 2.0,
            diurnal_period_secs: 60.0,
            diurnal_depth: 0.3,
        }
    }
}

/// Generates `n` requests from a seeded on/off modulated Poisson process
/// with an optional diurnal envelope, splitting arrivals across `tenants`
/// by weight exactly like [`poisson_trace`]. Candidate arrivals are drawn
/// at the peak rate and thinned against the instantaneous rate
/// (Lewis–Shedler), so the output is an exact sample of the
/// inhomogeneous process and fully deterministic in
/// `(tenants, spec, n, seed)`.
pub fn bursty_trace(tenants: &[TenantSpec], spec: &BurstSpec, n: usize, seed: u64) -> Vec<Request> {
    assert!(!tenants.is_empty(), "need at least one tenant");
    assert!(
        spec.base_rps > 0.0 && spec.burst_rps > 0.0,
        "arrival rates must be positive"
    );
    assert!(
        spec.mean_quiet_secs > 0.0 && spec.mean_burst_secs > 0.0,
        "state dwell times must be positive"
    );
    assert!(
        (0.0..1.0).contains(&spec.diurnal_depth),
        "diurnal depth must be in [0, 1)"
    );
    let total_weight = checked_total_weight(tenants);
    fn exp_draw(rng: &mut StdRng, mean: f64) -> f64 {
        let u: f64 = rng.gen_range(0.0..1.0);
        -(1.0 - u).ln() * mean
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let peak_rps = spec.base_rps.max(spec.burst_rps) * (1.0 + spec.diurnal_depth);
    let mut clock = 0.0f64;
    let mut bursting = false;
    let mut switch_at = exp_draw(&mut rng, spec.mean_quiet_secs);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        // Candidate at the peak rate; the state chain advances to the
        // candidate's time before the thinning decision prices it.
        clock += exp_draw(&mut rng, 1.0 / peak_rps);
        while clock >= switch_at {
            bursting = !bursting;
            switch_at += exp_draw(
                &mut rng,
                if bursting {
                    spec.mean_burst_secs
                } else {
                    spec.mean_quiet_secs
                },
            );
        }
        let state_rps = if bursting {
            spec.burst_rps
        } else {
            spec.base_rps
        };
        let envelope = if spec.diurnal_period_secs > 0.0 {
            1.0 + spec.diurnal_depth
                * (std::f64::consts::TAU * clock / spec.diurnal_period_secs).sin()
        } else {
            1.0
        };
        let keep: f64 = rng.gen_range(0.0..1.0);
        if keep * peak_rps >= state_rps * envelope {
            continue;
        }
        let id = out.len() as u64;
        out.push(draw_request(&mut rng, tenants, total_weight, id, clock));
    }
    out
}

/// Wraps explicit `(arrival_secs, prompt_len, output_len)` tuples as a
/// request trace for `tenant` — the trace-replay arrival path. The decode
/// budget of every request is the tenant's output upper bound. Ids count
/// from zero; compose multiple traces with [`merge_traces`], never by
/// concatenation (duplicate ids corrupt the gateway's deterministic
/// tie-breaks, and [`crate::serve::FleetGateway::serve_trace`] rejects
/// them).
pub fn replay_trace(tenant: &TenantSpec, points: &[(f64, usize, usize)]) -> Vec<Request> {
    points
        .iter()
        .enumerate()
        .map(|(i, &(arrival_secs, prompt_len, output_len))| {
            assert!(
                output_len <= tenant.output_lens.1,
                "replayed output {output_len} exceeds the tenant budget {}",
                tenant.output_lens.1
            );
            tenant.request(i as u64, arrival_secs, prompt_len, output_len)
        })
        .collect()
}

/// Merges traces into one, re-offsetting each part's ids past the
/// maximum id of everything before it so the result is collision-free.
/// Relative id order (and hence every same-arrival tie-break) within a
/// part is preserved; request order is the concatenation order.
///
/// # Panics
///
/// Panics if any single part carries an internal duplicate id — that is
/// a corrupt trace, not a composition artifact this helper can repair.
pub fn merge_traces(parts: &[Vec<Request>]) -> Vec<Request> {
    let mut out: Vec<Request> = Vec::with_capacity(parts.iter().map(Vec::len).sum());
    let mut next_id = 0u64;
    for part in parts {
        let mut ids: Vec<u64> = part.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        assert!(
            ids.windows(2).all(|w| w[0] != w[1]),
            "merge_traces input part carries duplicate ids"
        );
        let base = next_id;
        for r in part {
            let mut r = r.clone();
            r.id += base;
            next_id = next_id.max(r.id + 1);
            out.push(r);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_trace_is_seed_deterministic() {
        let tenants = [TenantSpec::interactive("chat"), TenantSpec::batch("batch")];
        let a = poisson_trace(&tenants, 5.0, 32, 42);
        let b = poisson_trace(&tenants, 5.0, 32, 42);
        assert_eq!(a.len(), 32);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.arrival_secs, y.arrival_secs);
            assert_eq!(x.prompt_len, y.prompt_len);
            assert_eq!(x.output_len, y.output_len);
            assert_eq!(x.tenant, y.tenant);
        }
        let c = poisson_trace(&tenants, 5.0, 32, 43);
        assert!(a
            .iter()
            .zip(&c)
            .any(|(x, y)| x.arrival_secs != y.arrival_secs));
    }

    #[test]
    fn arrivals_are_ordered_and_mean_rate_is_close() {
        let tenants = [TenantSpec::interactive("chat")];
        let trace = poisson_trace(&tenants, 10.0, 400, 7);
        assert!(trace
            .windows(2)
            .all(|w| w[0].arrival_secs <= w[1].arrival_secs));
        let span = trace.last().unwrap().arrival_secs;
        let rate = 400.0 / span;
        assert!((7.0..13.0).contains(&rate), "empirical rate {rate}");
        for r in &trace {
            assert!(r.output_len <= r.max_new);
            assert!((32..=96).contains(&r.prompt_len));
        }
    }

    #[test]
    fn weights_split_the_mix() {
        let tenants = [TenantSpec::interactive("chat"), TenantSpec::batch("batch")];
        let trace = poisson_trace(&tenants, 5.0, 400, 11);
        let chat = trace.iter().filter(|r| r.tenant == "chat").count();
        // 3:1 weights: expect roughly 300 of 400.
        assert!((240..=360).contains(&chat), "chat share {chat}");
    }

    #[test]
    fn replay_preserves_the_trace() {
        let t = TenantSpec::batch("replay");
        let trace = replay_trace(&t, &[(0.0, 300, 8), (0.5, 400, 16)]);
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[1].prompt_len, 400);
        assert_eq!(trace[1].output_len, 16);
        assert_eq!(trace[1].max_new, 32);
        assert_eq!(trace[0].priority, t.priority);
        assert_eq!(trace[0].weight, t.weight);
    }

    #[test]
    fn merged_traces_have_unique_ids_and_preserve_order() {
        let chat = replay_trace(
            &TenantSpec::interactive("chat"),
            &[(0.0, 32, 4), (0.2, 48, 8)],
        );
        let batch = replay_trace(&TenantSpec::batch("batch"), &[(0.1, 256, 8)]);
        let merged = merge_traces(&[chat.clone(), batch, chat]);
        assert_eq!(merged.len(), 5);
        let mut ids: Vec<u64> = merged.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        assert!(ids.windows(2).all(|w| w[0] != w[1]), "ids {ids:?}");
        // First part keeps its ids verbatim; later parts shift past it.
        assert_eq!(merged[0].id, 0);
        assert_eq!(merged[1].id, 1);
        assert_eq!(merged[2].id, 2);
        assert_eq!(merged[2].tenant, "batch");
        assert!(merged[3].id > merged[2].id);
        // Arrival shapes survive the renumbering untouched.
        assert_eq!(merged[3].arrival_secs, merged[0].arrival_secs);
        assert_eq!(merged[3].prompt_len, merged[0].prompt_len);
    }

    #[test]
    #[should_panic(expected = "duplicate ids")]
    fn merge_rejects_internally_corrupt_parts() {
        let t = TenantSpec::interactive("chat");
        let mut part = replay_trace(&t, &[(0.0, 32, 4), (0.1, 32, 4)]);
        part[1].id = 0;
        merge_traces(&[part]);
    }

    #[test]
    fn bursty_trace_is_seed_deterministic_and_burstier_than_poisson() {
        let tenants = [TenantSpec::interactive("chat"), TenantSpec::batch("batch")];
        let spec = BurstSpec::default();
        let a = bursty_trace(&tenants, &spec, 300, 17);
        let b = bursty_trace(&tenants, &spec, 300, 17);
        assert_eq!(a.len(), 300);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.arrival_secs, y.arrival_secs);
            assert_eq!(x.id, y.id);
            assert_eq!(x.tenant, y.tenant);
        }
        assert!(a.windows(2).all(|w| w[0].arrival_secs <= w[1].arrival_secs));
        // Coefficient of variation of inter-arrival gaps: 1 for a
        // memoryless Poisson stream, strictly above it for the on/off
        // modulated process — the burstiness the generator exists for.
        let cv = |trace: &[Request]| {
            let gaps: Vec<f64> = trace
                .windows(2)
                .map(|w| w[1].arrival_secs - w[0].arrival_secs)
                .collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
            var.sqrt() / mean
        };
        let poisson = poisson_trace(&tenants, 3.0, 300, 17);
        assert!(
            cv(&a) > 1.2 && cv(&a) > cv(&poisson),
            "bursty CV {} vs poisson CV {}",
            cv(&a),
            cv(&poisson)
        );
        let c = bursty_trace(&tenants, &spec, 300, 18);
        assert!(a
            .iter()
            .zip(&c)
            .any(|(x, y)| x.arrival_secs != y.arrival_secs));
    }
}
