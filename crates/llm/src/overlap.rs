//! Overlap-aware step scheduling: the event-timeline view of a decode or
//! prefill step (paper Section 7.2.2).
//!
//! The serial cost model sums every stage of a step —
//! `StepCost::wall_secs()` is NPU kernels + CPU work + session switches —
//! so every CPU microsecond and every 30 µs session switch lands on the
//! critical path. The paper's runtime pipelines instead: the CPU
//! lm_head/sampling of token *t* runs while the NPU computes the first
//! layers of token *t+1*, command submission for layer *N+1* rides the
//! double-buffered ring while layer *N* executes, and a session switch
//! overlaps the previous shard's tail kernels. This module prices that
//! schedule as a list scheduler over serial lanes (see *Evaluation*) and
//! reports its critical path as
//! [`crate::model::StepCost::overlapped_secs`].
//!
//! # Stage graph
//!
//! A step is recorded as [`StepStages`]: a CPU embedding stage, one
//! [`LayerStage`] per transformer layer (NPU kernel seconds plus command
//! dispatch seconds, with an optional session switch before the layer), a
//! final-norm NPU stage, and the CPU lm_head/sampling tail. The schedule
//! places these on four lanes:
//!
//! ```text
//! lane        iteration t-1                iteration t
//! CPU       ──[head t-2|embed t-1]──────[head t-1|embed t]──────── ...
//!                      \ first rows              \ first rows
//! NPU       ────────────[L0][L1]..[Ln][norm]──────[L0][L1]... ──── ...
//! DISPATCH  ──[d0][d1]..[dn]───[d0][d1]..            (ring depth 2)
//! SWITCH    ─────────[sw]───────────[wrap]─────────[sw]──────────── ...
//! DMA       ──[fetch Lj]──[fetch Lk]──....   (weight streaming only)
//! DRAFT     ──[draft round t]─────────[draft round t+1]──   (spec decode)
//! ```
//!
//! # The DRAFT lane: speculative decoding
//!
//! Speculative decoding adds a second, smaller model that proposes the
//! next `k` tokens while the target verifies the previous `k+1` in one
//! batched pass. The draft's *CPU* half (embedding, lm_head rows,
//! proposal argmax) runs on its own worker — [`lane::DRAFT`] — gated on
//! the first rows of the verify's CPU block (the accept decision streams
//! out row by row) and on the draft's own previous round
//! ([`StepStages::draft_cpu_secs`]). The draft's *NPU* half shares
//! [`lane::NPU`] with the target: submitted after the verify walk's final
//! norm, it queues behind the verify kernels in lane order
//! ([`StepStages::draft_npu_secs`]), because there is one physical
//! accelerator. The next iteration's first layer depends on the draft
//! round (its proposals are the verify batch), so under
//! [`DispatchMode::Overlapped`] the steady-state period charges verify
//! kernels plus only the draft's NPU share — the draft CPU work hides
//! whenever the verify walk is longer, which is exactly the llm.npu-style
//! win the paper's Section 9 rides. Both fields 0 (plain decode) submit
//! nothing and build the exact pre-speculation task graph.
//!
//! Dependency edges (finish-to-start):
//!
//! - layer 0 of step *t* waits for the **first rows** of the CPU block
//!   (lm_head of *t-1* + embedding of *t*, streamed row by row): at batch
//!   *b* that is `1/b` of the block, so the CPU tail hides behind NPU
//!   compute once the batch is large (at `b = 1` the dependency is the
//!   whole block and the CPU stays on the critical path, matching the
//!   paper's batch-1 observation);
//! - the **final norm** of step *t* is the full-batch barrier: row chunks
//!   stream through the layer walk as the CPU emits them, but the final
//!   norm and the lm_head behind it need every row, so they wait for the
//!   rest of the CPU block — the pipeline never runs more than one step
//!   ahead;
//! - dispatch of layer *i* waits for layer *i-2* (a depth-2 command ring:
//!   commands for layer *i* are submitted while layer *i-1* executes);
//! - a session switch waits only for the previous shard's **commands** to
//!   be queued (dispatch of the boundary's predecessor), so it runs while
//!   the NPU drains that shard's tail kernels; the first layer of the new
//!   shard waits for the switch;
//! - the wrap-around switch (back to shard 0) overlaps the CPU tail.
//!
//! # The DMA lane: cross-layer weight prefetch
//!
//! There are two distinct classes of DMA traffic. *Intra-kernel* DDR↔TCM
//! streaming (activations, resident weight tiles) already overlaps compute
//! inside each kernel via the phase model ([`hexsim::cost`] — phase wall
//! time is the max over engines), so a layer's `npu_secs` is the
//! post-overlap kernel wall time and scheduling that traffic again would
//! double count. *Cross-layer weight streaming* is new with the hot/cold
//! hierarchy: a cold layer's weights live in a DDR staging region and must
//! be fetched into the double-buffered session window before the layer's
//! kernels can run. That fetch is a whole-layer-sized transfer that the
//! phase model never saw, so it gets its own [`lane::DMA`] lane here:
//!
//! - a streamed layer records [`LayerStage::weight_fetch_secs`] > 0, and
//!   its fetch task gets a finish-to-start edge **into the layer's NPU
//!   kernels** — compute cannot start before its weights arrived;
//! - fetches serialize on the DMA lane (one streaming engine) and the
//!   fetch for the *k*-th streamed layer waits for the compute of streamed
//!   layer *k−2* — the double-buffered window has two slots, so a fetch
//!   may run at most two streamed layers ahead of consumption;
//! - resident layers submit **no** DMA task at all, so plans without
//!   streaming build the exact task graph they built before the lane
//!   existed, and every pinned golden number reproduces.
//!
//! Under [`DispatchMode::Overlapped`] the steady-state period therefore
//! charges only *exposed* DMA time: fetches that fit under the previous
//! layers' compute vanish from the critical path, and the period degrades
//! to the DMA-lane occupancy only when streaming is bandwidth-bound.
//! Serial mode pays every fetch in full ([`StepStages::serial_secs`]).
//!
//! Every path through one iteration of the graph visits each stage at most
//! once, so the steady-state period can never exceed the serial sum; the
//! golden tests pin `overlapped <= serial` and `overlapped == serial` when
//! overlap is disabled (the [`DispatchMode::Serial`] default keeps every
//! pre-existing number bit-identical).
//!
//! # Evaluation
//!
//! Every task starts at the latest of its lane's free time and its
//! dependencies' finish times, and every dependency points back at most
//! one iteration, at a task whose finish time the iteration carries. So
//! pricing keeps no task list: it runs the graph over that carry alone —
//! each lane's free time and busy seconds, and the handful of finish
//! times the next iteration reads — with the same `max` and `+` per task,
//! in the same order, as a list scheduler holding every task. The
//! makespan is read once, at the end, as the latest lane free time: every
//! finish becomes its lane's free time, and a lane's free time never
//! falls. The maxima are plain `>` comparisons: every time is finite and
//! never −0.0, so they pick what `f64::max` picks. The period, every lane
//! utilization and [`single_pass_secs`] equal that scheduler's bit for
//! bit; the unit tests keep such a scheduler (a `Timeline` of every task,
//! with `f64::max` and a running makespan) as the oracle and compare the
//! two on random stage vectors, −0.0 durations and exact ties included. A
//! negative, infinite or NaN stage duration panics, as the oracle's
//! `submit` does.

/// How the runtime composes a step's stages in time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DispatchMode {
    /// Historical additive accounting: every stage serializes
    /// (`overlapped_secs == wall_secs()`). The default; reproduces every
    /// pre-overlap number bit-for-bit.
    #[default]
    Serial,
    /// Event-timeline accounting: `overlapped_secs` is the critical path
    /// of the pipelined schedule described in the module docs.
    Overlapped,
}

impl DispatchMode {
    /// Wall seconds of one recorded pass under this mode: `serial_secs`
    /// (the pass's additive stage sum, `StepCost::wall_secs`) when serial.
    /// Overlapped, a pass that `repeats` (a decode step) takes the
    /// steady-state period of the pipelined schedule
    /// ([`steady_state_step_secs`]): the CPU tail of step *t* hides behind
    /// the first layers of step *t+1*, dispatch rides the double-buffered
    /// ring, and session switches hide behind the previous shard's tail
    /// kernels. A pass that does not repeat (a prefill) has no next step
    /// to pipeline into and takes one standalone pass
    /// ([`single_pass_secs`]).
    pub fn price(self, serial_secs: f64, stages: &StepStages, repeats: bool) -> f64 {
        match self {
            DispatchMode::Serial => serial_secs,
            DispatchMode::Overlapped if repeats => steady_state_step_secs(stages),
            DispatchMode::Overlapped => single_pass_secs(stages),
        }
    }
}

/// Lane indices of the step schedule.
pub mod lane {
    /// Host CPU worker (embedding, lm_head, sampling).
    pub const CPU: usize = 0;
    /// NPU compute (HVX/HMX kernel wall time, DMA already folded in).
    pub const NPU: usize = 1;
    /// CPU-side command dispatch thread feeding the ring.
    pub const DISPATCH: usize = 2;
    /// Session-switch lane (FastRPC handle swap + ring cache maintenance).
    pub const SWITCH: usize = 3;
    /// Weight-streaming DMA lane: whole-layer fetches from the DDR staging
    /// region into the double-buffered session window (cold layers only;
    /// resident plans leave this lane empty).
    pub const DMA: usize = 4;
    /// Draft-model host lane (speculative decoding only): the CPU side of
    /// the next speculation round — draft embedding lookups, draft lm_head
    /// rows and proposal argmax — runs on its own worker thread while the
    /// target's verify kernels occupy the NPU. The draft's *NPU* kernels
    /// are not a separate lane: they share [`NPU`] with the target
    /// and serialize behind the verify pass in submission order, because
    /// there is one physical accelerator. Plain decode leaves this lane
    /// empty.
    pub const DRAFT: usize = 5;
    /// Number of lanes.
    pub(super) const COUNT: usize = 6;
}

/// One transformer layer's contribution to a step.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerStage {
    /// NPU kernel wall seconds (GEMMs + attention + misc, DMA overlap
    /// already composed at phase level; dispatch excluded).
    pub npu_secs: f64,
    /// Command submission overhead for the layer's ops (ring writes,
    /// cache maintenance, completion sync).
    pub dispatch_secs: f64,
    /// Whether a session switch precedes this layer (shard boundary).
    pub switch_before: bool,
    /// Seconds to stream this layer's weights from the DDR staging region
    /// into the session window (0 for resident layers — no DMA task is
    /// submitted and the task graph is unchanged).
    pub weight_fetch_secs: f64,
}

/// The recorded stage breakdown of one forward step — the input to the
/// overlap scheduler, captured by `Model` on every step in both execution
/// modes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StepStages {
    /// CPU embedding-lookup seconds at the head of the step.
    pub cpu_embed_secs: f64,
    /// Per-layer stages in walk order.
    pub layers: Vec<LayerStage>,
    /// Final RMSNorm on the NPU after the last layer.
    pub final_npu_secs: f64,
    /// CPU lm_head + sampling seconds at the tail of the step.
    pub cpu_head_secs: f64,
    /// Seconds per session switch (0 when single-session).
    pub switch_secs: f64,
    /// Whether a wrap-around switch returns dispatch to the first shard
    /// after the walk.
    pub wrap_switch: bool,
    /// Decode batch size (rows); controls how much of the CPU block the
    /// next step's first layer must wait for.
    pub batch: usize,
    /// CPU seconds of the *draft model's* next speculation round
    /// (speculative decoding only; 0 for plain decode). Runs on
    /// [`lane::DRAFT`], so it hides behind the target's verify kernels
    /// whenever the draft round is cheaper than the verify walk.
    pub draft_cpu_secs: f64,
    /// NPU kernel seconds of the draft's next speculation round
    /// (speculative decoding only; 0 for plain decode). Shares
    /// [`lane::NPU`] with the target and serializes behind the verify
    /// pass — the exposed part of the draft round under overlap.
    pub draft_npu_secs: f64,
}

impl StepStages {
    /// The serial (additive) wall time of the recorded stages — the same
    /// quantity as `StepCost::wall_secs()`, up to float association.
    pub fn serial_secs(&self) -> f64 {
        let mut total = self.cpu_embed_secs
            + self.final_npu_secs
            + self.cpu_head_secs
            + self.draft_cpu_secs
            + self.draft_npu_secs;
        let mut switches = usize::from(self.wrap_switch);
        for l in &self.layers {
            total += l.npu_secs + l.dispatch_secs + l.weight_fetch_secs;
            switches += usize::from(l.switch_before);
        }
        total + switches as f64 * self.switch_secs
    }

    /// The same step re-priced at a DVFS clock multiplier: every
    /// rate-derived duration (CPU blocks, NPU kernels, dispatch, weight
    /// fetches, the final norm) dilates by `1/mult`, mirroring
    /// [`hexsim::device::DeviceProfile::at_clock`] where every rate constant
    /// scales by `mult`. The per-switch seconds stay fixed — a FastRPC
    /// handle swap is host-side latency, not DVFS-domain compute — so a
    /// sharded step under throttle is *not* a pure `1/mult` dilation: the
    /// switches grow relatively cheaper, exactly as they do when the
    /// scaled device is measured from scratch.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < mult <= 1`.
    pub fn at_clock(&self, mult: f64) -> StepStages {
        assert!(
            mult > 0.0 && mult <= 1.0,
            "clock multiplier {mult} outside (0, 1]"
        );
        StepStages {
            cpu_embed_secs: self.cpu_embed_secs / mult,
            layers: self
                .layers
                .iter()
                .map(|l| LayerStage {
                    npu_secs: l.npu_secs / mult,
                    dispatch_secs: l.dispatch_secs / mult,
                    switch_before: l.switch_before,
                    weight_fetch_secs: l.weight_fetch_secs / mult,
                })
                .collect(),
            final_npu_secs: self.final_npu_secs / mult,
            cpu_head_secs: self.cpu_head_secs / mult,
            switch_secs: self.switch_secs,
            wrap_switch: self.wrap_switch,
            batch: self.batch,
            draft_cpu_secs: self.draft_cpu_secs / mult,
            draft_npu_secs: self.draft_npu_secs / mult,
        }
    }

    /// Fuses two stage breakdowns of the *same* layer walk into the stage
    /// breakdown of a single combined walk — the cost model of chunked
    /// prefill interleaved with decode (the serving gateway rides a
    /// prompt chunk through the decode batch's walk instead of running a
    /// separate pass).
    ///
    /// Per layer, row-proportional compute adds (`npu_secs` sums) while
    /// per-walk overheads are paid once: command dispatch rides the same
    /// ring slot (`dispatch_secs` max), a layer's weights are fetched once
    /// no matter how many rows consume them (`weight_fetch_secs` max), and
    /// a shard boundary switches sessions once (`switch_before` OR,
    /// `switch_secs` max). CPU embedding/head work and the final norm are
    /// row-proportional and sum; `batch` sums so the CPU-streaming model
    /// sees the combined row count.
    ///
    /// # Panics
    ///
    /// Panics if the two walks have different layer counts — they must
    /// describe the same model.
    pub fn merged(&self, other: &StepStages) -> StepStages {
        assert_eq!(
            self.layers.len(),
            other.layers.len(),
            "merged walks must traverse the same layers"
        );
        let layers = self
            .layers
            .iter()
            .zip(other.layers.iter())
            .map(|(a, b)| LayerStage {
                npu_secs: a.npu_secs + b.npu_secs,
                dispatch_secs: a.dispatch_secs.max(b.dispatch_secs),
                switch_before: a.switch_before || b.switch_before,
                weight_fetch_secs: a.weight_fetch_secs.max(b.weight_fetch_secs),
            })
            .collect();
        StepStages {
            cpu_embed_secs: self.cpu_embed_secs + other.cpu_embed_secs,
            layers,
            final_npu_secs: self.final_npu_secs + other.final_npu_secs,
            cpu_head_secs: self.cpu_head_secs + other.cpu_head_secs,
            switch_secs: self.switch_secs.max(other.switch_secs),
            wrap_switch: self.wrap_switch || other.wrap_switch,
            batch: self.batch + other.batch,
            draft_cpu_secs: self.draft_cpu_secs + other.draft_cpu_secs,
            draft_npu_secs: self.draft_npu_secs + other.draft_npu_secs,
        }
    }
}

/// The carry-only evaluation of the stage graph: each lane's free time and
/// busy seconds. A task runs as the tests' `Timeline` oracle schedules it:
/// it starts at the latest of its lane's free time and its dependencies'
/// finish times, in that order, and finishes `+ secs` later. Lane sums
/// accumulate in submission order, so every value is the one a timeline of
/// the whole task list reports, bit for bit, without keeping the list.
///
/// Every time here is finite and never −0.0: a start is +0.0 or later,
/// and adding a duration that is not negative keeps it there.
#[derive(Clone, Copy, Debug, Default)]
struct Lanes {
    free: [f64; lane::COUNT],
    busy: [f64; lane::COUNT],
}

impl Lanes {
    /// Runs a task of `secs` on `lane` after every finish time in
    /// `after`, and returns its own. A task that never ran counts as
    /// finished at 0.0: no start precedes it, so waiting on it is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, infinite or NaN.
    #[inline]
    fn run(&mut self, lane: usize, secs: f64, after: impl IntoIterator<Item = f64>) -> f64 {
        assert!(
            secs >= 0.0 && secs.is_finite(),
            "task duration must be finite and non-negative, got {secs}"
        );
        // A fold, not a `for` loop: an NPU task's dependencies are a
        // `Chain`, which `for` steps through one checked item at a time
        // (pricing ran 28% slower that way).
        let start = after.into_iter().fold(self.free[lane], latest);
        let finish = start + secs;
        self.free[lane] = finish;
        self.busy[lane] += secs;
        finish
    }

    /// The latest finish of any task (0 before any time passed). Every
    /// finish becomes its lane's free time, and a lane's free time never
    /// falls, so the latest free time is the latest finish.
    fn makespan(&self) -> f64 {
        self.free.into_iter().fold(0.0, latest)
    }

    /// Busy fraction of every lane over the makespan (0 before any time
    /// passed).
    fn utilization(&self) -> [f64; lane::COUNT] {
        let span = self.makespan();
        std::array::from_fn(|l| if span > 0.0 { self.busy[l] / span } else { 0.0 })
    }
}

/// The later of two [`Lanes`] times by `>`: for times that are finite and
/// never −0.0 that is what `f64::max` returns, ties included, without its
/// NaN handling.
#[inline]
fn latest(a: f64, b: f64) -> f64 {
    if b > a {
        b
    } else {
        a
    }
}

/// Finish times of the tasks of one iteration that later iterations
/// depend on; 0.0 for a task the iteration did not run.
#[derive(Clone, Copy, Debug, Default)]
struct IterCarry {
    last_layer: f64,
    penultimate_layer: f64,
    last_dispatch: f64,
    final_norm: f64,
    wrap_switch: f64,
    /// Compute of the last two *streamed* layers, in walk order — the
    /// current owners of the double-buffered window's two slots. The next
    /// fetch waits for the older one to free its slot.
    last_stream_compute: f64,
    penult_stream_compute: f64,
    /// The draft model's speculation round launched during this iteration
    /// (speculative decoding only): the next iteration's verify pass
    /// consumes its proposals, and the next draft round continues from
    /// them.
    draft_done: f64,
}

/// Runs one decode iteration of the stage graph. `prev` is the previous
/// iteration (None for the pipeline fill, whose CPU block is only the
/// embedding — there is no earlier lm_head to fold in).
fn run_iteration(lanes: &mut Lanes, st: &StepStages, prev: Option<&IterCarry>) -> IterCarry {
    let p = prev.copied().unwrap_or_default();
    let b = st.batch.max(1) as f64;
    // The CPU block between two NPU walks: lm_head+sampling of the
    // previous step, then this step's embedding, streamed row by row.
    let block = match prev {
        Some(_) => st.cpu_head_secs + st.cpu_embed_secs,
        None => st.cpu_embed_secs,
    };
    let first_share = block / b;
    let cpu_first = lanes.run(lane::CPU, first_share, [p.final_norm]);
    let cpu_rest = lanes.run(lane::CPU, block - first_share, []);

    let mut prev_layer = p.last_layer;
    let mut penult_layer = p.penultimate_layer;
    let mut prev_dispatch = p.last_dispatch;
    let mut last_stream = p.last_stream_compute;
    let mut penult_stream = p.penult_stream_compute;
    let (mut last_layer, mut last_dispatch) = (0.0, 0.0);
    for (i, layer) in st.layers.iter().enumerate() {
        // Session switch at a shard boundary: starts once the previous
        // shard's commands are queued, overlapping its tail kernels.
        let switch = if layer.switch_before && i > 0 {
            lanes.run(lane::SWITCH, st.switch_secs, [prev_dispatch])
        } else {
            0.0
        };
        // Command dispatch for layer i: depth-2 ring — submitted while
        // layer i-1 executes, i.e. after layer i-2 completed. Commands for
        // a new shard go to the new session's ring, after the switch.
        let disp = lanes.run(lane::DISPATCH, layer.dispatch_secs, [penult_layer, switch]);
        // Weight prefetch for a streamed layer: DDR staging -> session
        // window. The fetch starts as soon as the DMA engine is free and
        // the slot it reuses was drained (the compute of the streamed
        // layer two back — a two-slot double buffer). Resident layers
        // (fetch == 0) run no DMA task.
        let streamed = layer.weight_fetch_secs > 0.0;
        let fetch = if streamed {
            lanes.run(lane::DMA, layer.weight_fetch_secs, [penult_stream])
        } else {
            0.0
        };
        // NPU compute: after its commands, its shard's switch, its weight
        // fetch, the layer before it, and — for the walk's head — the CPU
        // rows it consumes, the wrap-around switch and the proposals a
        // verify pass consumes (drafted during the previous iteration).
        let head = match i {
            0 => [cpu_first, p.wrap_switch, p.draft_done],
            _ => [0.0; 3],
        };
        let ldeps = [disp, switch, fetch, prev_layer];
        let lt = lanes.run(lane::NPU, layer.npu_secs, ldeps.into_iter().chain(head));
        if streamed {
            penult_stream = last_stream;
            last_stream = lt;
        }
        penult_layer = prev_layer;
        prev_layer = lt;
        last_layer = lt;
        prev_dispatch = disp;
        last_dispatch = disp;
    }
    // Final norm: the full-batch barrier. Row chunks stream through the
    // layer walk as the CPU emits them, but the final norm (and the
    // lm_head behind it) needs every row, so it waits for the whole CPU
    // block on top of the NPU lane serialization.
    let final_norm = lanes.run(lane::NPU, st.final_npu_secs, [cpu_rest]);
    // Wrap-around switch back to shard 0, overlapping the CPU tail.
    let wrap_switch = if st.wrap_switch {
        lanes.run(lane::SWITCH, st.switch_secs, [last_dispatch])
    } else {
        0.0
    };
    // The draft model's next speculation round (speculative decoding
    // only). Its CPU half runs on the dedicated draft worker, gated on the
    // first rows of this iteration's CPU block (the accept decision of the
    // previous verify streams out row by row) and on the draft's own
    // previous round. Its NPU half shares the target's accelerator: run
    // after the final norm, it queues behind the verify kernels in lane
    // order, so only this NPU share of the draft round can ever be exposed
    // on the critical path — the CPU half hides whenever the verify walk
    // is longer. Plain decode (both fields 0) runs no draft task.
    let draft_done = if st.draft_cpu_secs > 0.0 || st.draft_npu_secs > 0.0 {
        let draft_cpu = lanes.run(lane::DRAFT, st.draft_cpu_secs, [cpu_first, p.draft_done]);
        if st.draft_npu_secs > 0.0 {
            lanes.run(lane::NPU, st.draft_npu_secs, [draft_cpu])
        } else {
            draft_cpu
        }
    } else {
        0.0
    };
    IterCarry {
        last_layer,
        penultimate_layer: penult_layer,
        last_dispatch,
        final_norm,
        wrap_switch,
        last_stream_compute: last_stream,
        penult_stream_compute: penult_stream,
        draft_done,
    }
}

/// Iterations scheduled to reach (and measure) the steady state.
const STEADY_ITERS: usize = 10;

/// The steady state of the pipelined decode schedule, read off one
/// evaluation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SteadyState {
    /// Wall seconds of one step ([`steady_state_step_secs`]).
    pub period_secs: f64,
    /// Busy fraction of each lane, indexed by the [`lane`] constants
    /// ([`steady_state_lane_utilization`]).
    pub lane_util: [f64; lane::COUNT],
}

/// Runs the steady-state iterations once; returns the lanes and the
/// period between the final norms of the last two iterations.
fn schedule_steady_state(st: &StepStages) -> (Lanes, f64) {
    let mut lanes = Lanes::default();
    let mut prev = run_iteration(&mut lanes, st, None);
    let mut period = 0.0;
    for _ in 1..STEADY_ITERS {
        let it = run_iteration(&mut lanes, st, Some(&prev));
        period = it.final_norm - prev.final_norm;
        prev = it;
    }
    // The CPU tail of the final step is part of every period (it is the
    // head of the next iteration's CPU block); nothing to add. Guard
    // against float drift pushing past the serial bound.
    (lanes, period.min(st.serial_secs()))
}

/// The step period and every lane's utilization from a single schedule,
/// for callers that need both (the serving gateway, once per step). Both
/// are reads of the same evaluation, so they equal what
/// [`steady_state_step_secs`] and [`steady_state_lane_utilization`]
/// return, bit for bit.
pub fn steady_state(st: &StepStages) -> SteadyState {
    let (lanes, period_secs) = schedule_steady_state(st);
    SteadyState {
        period_secs,
        lane_util: lanes.utilization(),
    }
}

/// Steady-state wall seconds of one decode step under the pipelined
/// schedule: identical iterations are scheduled until the per-iteration
/// period settles, and the period between the last two is returned. The
/// result never exceeds [`StepStages::serial_secs`] (every dependency path
/// visits each stage at most once per iteration).
pub fn steady_state_step_secs(st: &StepStages) -> f64 {
    schedule_steady_state(st).1
}

/// Steady-state busy fraction of one lane under the pipelined schedule:
/// the same iterations as [`steady_state_step_secs`] are scheduled and
/// the lane's busy seconds are divided by the schedule's makespan. The
/// NPU lane's fraction is the accelerator utilization a serving gateway
/// reports per device; the DMA lane's fraction shows how close weight
/// streaming runs to bandwidth-bound.
///
/// # Panics
///
/// Panics if `lane_idx` is not a [`lane`] index.
pub fn steady_state_lane_utilization(st: &StepStages, lane_idx: usize) -> f64 {
    schedule_steady_state(st).0.utilization()[lane_idx]
}

/// Wall seconds of one *standalone* pass (prefill): a single iteration
/// with its CPU tail, no cross-step pipelining — only dispatch, DMA and
/// session-switch overlap apply.
pub fn single_pass_secs(st: &StepStages) -> f64 {
    let mut lanes = Lanes::default();
    let it = run_iteration(&mut lanes, st, None);
    lanes.run(lane::CPU, st.cpu_head_secs, [it.final_norm]);
    lanes.makespan().min(st.serial_secs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use timeline::{TaskId, Timeline};

    fn stages(batch: usize) -> StepStages {
        StepStages {
            cpu_embed_secs: 1e-3,
            layers: vec![
                LayerStage {
                    npu_secs: 10e-3,
                    dispatch_secs: 1e-3,
                    switch_before: false,
                    weight_fetch_secs: 0.0,
                },
                LayerStage {
                    npu_secs: 10e-3,
                    dispatch_secs: 1e-3,
                    switch_before: false,
                    weight_fetch_secs: 0.0,
                },
            ],
            final_npu_secs: 0.5e-3,
            cpu_head_secs: 8e-3,
            switch_secs: 0.0,
            wrap_switch: false,
            batch,
            draft_cpu_secs: 0.0,
            draft_npu_secs: 0.0,
        }
    }

    #[test]
    fn serial_secs_sums_every_stage() {
        let st = stages(8);
        // 1 + (10+1)*2 + 0.5 + 8 = 31.5 ms.
        assert!((st.serial_secs() - 31.5e-3).abs() < 1e-12);
    }

    #[test]
    fn steady_state_matches_hand_computed_critical_path() {
        // At batch 8 the CPU block (head 8ms + embed 1ms) streams its
        // first rows in 9/8 ms; the critical cycle is
        // first-rows -> L0 -> L1 -> norm = 9/8 + 10 + 10 + 0.5 ms.
        let st = stages(8);
        let want = (9.0 / 8.0 + 10.0 + 10.0 + 0.5) * 1e-3;
        let got = steady_state_step_secs(&st);
        assert!((got - want).abs() < 1e-12, "got {got}, want {want}");
        assert!(got < st.serial_secs());
    }

    #[test]
    fn batch_one_keeps_cpu_on_the_critical_path() {
        // At batch 1 the full CPU block precedes layer 0; only the
        // dispatch overhead hides (2 ms of it).
        let st = stages(1);
        let want = (9.0 + 10.0 + 10.0 + 0.5) * 1e-3;
        let got = steady_state_step_secs(&st);
        assert!((got - want).abs() < 1e-12, "got {got}, want {want}");
        assert!(got < st.serial_secs());
    }

    #[test]
    fn cpu_bound_steps_are_paced_by_the_cpu_lane() {
        // A huge CPU tail: the period degenerates to the CPU block plus
        // the full-batch barrier (the NPU waits on rows), not below it.
        let mut st = stages(16);
        st.cpu_head_secs = 100e-3;
        let got = steady_state_step_secs(&st);
        assert!((got - 101.5e-3).abs() < 1e-9, "got {got}");
    }

    #[test]
    fn boundary_switches_hide_behind_tail_kernels() {
        let mut st = stages(8);
        let base = steady_state_step_secs(&st);
        st.layers[1].switch_before = true;
        st.wrap_switch = true;
        st.switch_secs = 30e-6;
        let sharded = steady_state_step_secs(&st);
        // Serial pays both switches in full; the schedule hides them
        // behind the 10 ms tail kernels and the CPU block.
        assert!((sharded - base).abs() < 1e-12, "{sharded} vs {base}");
        assert!(st.serial_secs() - stages(8).serial_secs() > 5e-5);
    }

    #[test]
    fn dispatch_bound_walks_are_paced_by_the_dispatch_lane() {
        // Dispatch slower than compute: the ring becomes the bottleneck
        // and the period approaches the dispatch-lane occupancy.
        let mut st = stages(8);
        for l in &mut st.layers {
            l.npu_secs = 1e-3;
            l.dispatch_secs = 20e-3;
        }
        let got = steady_state_step_secs(&st);
        assert!(got >= 40e-3 - 1e-12, "dispatch lane must pace: {got}");
        assert!(got <= st.serial_secs());
    }

    #[test]
    fn single_pass_hides_dispatch_only() {
        let st = stages(4);
        let got = single_pass_secs(&st);
        // embed + L0(after its 1ms dispatch, which nothing hides) + L1
        // (dispatch hidden) + norm + head; the first dispatch starts at
        // t=0 concurrently with the embed.
        let want = (1.0 + 10.0 + 10.0 + 0.5 + 8.0) * 1e-3;
        assert!((got - want).abs() < 1e-12, "got {got}, want {want}");
        assert!(got < st.serial_secs());
    }

    #[test]
    fn serial_secs_charges_weight_fetches_in_full() {
        let mut st = stages(8);
        st.layers[1].weight_fetch_secs = 5e-3;
        // Serial mode pays the whole fetch: 31.5 + 5 = 36.5 ms.
        assert!((st.serial_secs() - 36.5e-3).abs() < 1e-12);
    }

    #[test]
    fn hidden_weight_fetch_leaves_the_period_unchanged() {
        // A 5 ms fetch for L1 has two slots' worth of runway (the double
        // buffer lets it run up to two streamed layers ahead), far more
        // than it needs under 10 ms layer kernels: fully hidden.
        let base = steady_state_step_secs(&stages(8));
        let mut st = stages(8);
        st.layers[1].weight_fetch_secs = 5e-3;
        let got = steady_state_step_secs(&st);
        assert!((got - base).abs() < 1e-12, "got {got}, base {base}");
        // Serial still pays it, so the overlap win grew by the fetch.
        assert!((st.serial_secs() - stages(8).serial_secs() - 5e-3).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_bound_streaming_is_paced_by_the_dma_lane() {
        // Both layers stream 30 ms of weights per step: 60 ms of DMA per
        // iteration exceeds every other lane, so the steady-state period
        // is exactly the DMA-lane occupancy — only the *exposed* fetch
        // time shows up, never the serial sum.
        let mut st = stages(8);
        for l in &mut st.layers {
            l.weight_fetch_secs = 30e-3;
        }
        let got = steady_state_step_secs(&st);
        assert!((got - 60e-3).abs() < 1e-12, "got {got}");
        assert!(got < st.serial_secs());
    }

    #[test]
    fn fetch_gates_its_layers_compute() {
        // One streamed layer whose fetch dwarfs compute: the period can
        // never drop below the fetch (finish-to-start edge into the
        // layer's kernels + DMA lane serialization).
        let mut st = stages(8);
        st.layers.truncate(1);
        st.layers[0].weight_fetch_secs = 50e-3;
        st.layers[0].npu_secs = 1e-3;
        let got = steady_state_step_secs(&st);
        assert!((got - 50e-3).abs() < 1e-12, "got {got}");
        let one = single_pass_secs(&st);
        assert!(one >= 50e-3 + 1e-3 - 1e-12, "single pass {one}");
    }

    #[test]
    fn zero_fetch_layers_build_the_identical_schedule() {
        // weight_fetch_secs == 0.0 must take the exact pre-streaming code
        // path (no DMA task run), not merely a similar number: the DMA
        // lane never moves from t = 0 in any iteration.
        let st = stages(8);
        let (lanes, period) = schedule_steady_state(&st);
        assert_eq!((lanes.free[lane::DMA], lanes.busy[lane::DMA]), (0.0, 0.0));
        assert!(period > 0.0);
        // The oracle's graph: 2 CPU + 2 dispatch + 2 layers + final norm,
        // nothing else.
        let mut tl = Timeline::new(lane::COUNT);
        oracle_iteration(&mut tl, &st, None);
        assert_eq!(tl.task_count(), 7);
    }

    #[test]
    fn single_layer_walk_schedules() {
        let mut st = stages(8);
        st.layers.truncate(1);
        let got = steady_state_step_secs(&st);
        assert!(got > 0.0 && got <= st.serial_secs());
        let one = single_pass_secs(&st);
        assert!(one > 0.0 && one <= st.serial_secs());
    }

    #[test]
    fn npu_lane_dominates_utilization_in_compute_bound_steps() {
        // 20 ms of NPU kernels against a ~1 ms critical-path slack: the
        // NPU lane stays near fully busy while dispatch idles.
        let st = stages(8);
        let npu = steady_state_lane_utilization(&st, lane::NPU);
        let disp = steady_state_lane_utilization(&st, lane::DISPATCH);
        assert!(npu > 0.85, "npu lane {npu}");
        assert!(disp < npu, "dispatch {disp} vs npu {npu}");
        assert!((0.0..=1.0).contains(&npu) && (0.0..=1.0).contains(&disp));
    }

    #[test]
    fn steady_state_reads_period_and_every_lane_off_one_schedule() {
        let mut streamed = stages(8);
        streamed.layers[1].weight_fetch_secs = 5e-3;
        streamed.draft_cpu_secs = 2e-3;
        let mut sharded = stages(1);
        sharded.layers[1].switch_before = true;
        sharded.wrap_switch = true;
        sharded.switch_secs = 30e-6;
        for st in [stages(8), streamed, sharded] {
            let ss = steady_state(&st);
            assert_eq!(
                ss.period_secs.to_bits(),
                steady_state_step_secs(&st).to_bits()
            );
            for (l, util) in ss.lane_util.iter().enumerate() {
                assert_eq!(
                    util.to_bits(),
                    steady_state_lane_utilization(&st, l).to_bits()
                );
            }
        }
    }

    #[test]
    fn merged_walk_sums_compute_and_shares_overheads() {
        let mut a = stages(8);
        a.layers[1].switch_before = true;
        a.switch_secs = 30e-6;
        a.layers[0].weight_fetch_secs = 2e-3;
        let mut b = stages(2);
        b.layers[0].weight_fetch_secs = 3e-3;
        let m = a.merged(&b);
        assert_eq!(m.layers.len(), 2);
        assert_eq!(m.batch, 10);
        // Compute sums; dispatch and fetch are paid once (max).
        assert!((m.layers[0].npu_secs - 20e-3).abs() < 1e-15);
        assert!((m.layers[0].dispatch_secs - 1e-3).abs() < 1e-15);
        assert!((m.layers[0].weight_fetch_secs - 3e-3).abs() < 1e-15);
        assert!(m.layers[1].switch_before);
        assert!((m.switch_secs - 30e-6).abs() < 1e-15);
        assert!((m.cpu_head_secs - 16e-3).abs() < 1e-15);
        // The fused walk can never beat either walk alone, and can never
        // cost more than running the two serially.
        let fused = steady_state_step_secs(&m);
        let sa = steady_state_step_secs(&a);
        let sb = steady_state_step_secs(&b);
        assert!(fused >= sa.max(sb) - 1e-12, "{fused} vs {sa}/{sb}");
        assert!(fused <= sa + sb + 1e-12, "{fused} vs {sa}+{sb}");
    }

    #[test]
    fn at_clock_dilates_the_critical_path_by_one_over_mult() {
        // No switches: the whole graph is rate-derived, so the steady
        // period and single-pass time dilate by exactly 1/mult.
        let st = stages(8);
        let m = 0.6;
        let slow = st.at_clock(m);
        let burst = steady_state_step_secs(&st);
        let throttled = steady_state_step_secs(&slow);
        assert!(
            (throttled - burst / m).abs() < 1e-12,
            "{throttled} vs {}",
            burst / m
        );
        let one = single_pass_secs(&slow);
        assert!((one - single_pass_secs(&st) / m).abs() < 1e-12);
        assert!((slow.serial_secs() - st.serial_secs() / m).abs() < 1e-12);
    }

    #[test]
    fn at_clock_keeps_switch_seconds_fixed() {
        let mut st = stages(8);
        st.layers[1].switch_before = true;
        st.wrap_switch = true;
        st.switch_secs = 30e-6;
        let slow = st.at_clock(0.5);
        assert_eq!(slow.switch_secs, st.switch_secs);
        assert!(slow.layers[1].switch_before && slow.wrap_switch);
        // Serial time is the dilated rate work plus the *undilated*
        // switches — strictly less than a pure 2x dilation.
        let rate_work = st.serial_secs() - 2.0 * st.switch_secs;
        let want = rate_work / 0.5 + 2.0 * st.switch_secs;
        assert!((slow.serial_secs() - want).abs() < 1e-12);
        assert!(slow.serial_secs() < st.serial_secs() * 2.0);
    }

    #[test]
    fn at_clock_unity_is_identity() {
        let mut st = stages(4);
        st.layers[0].weight_fetch_secs = 2e-3;
        st.draft_cpu_secs = 1e-3;
        st.draft_npu_secs = 2e-3;
        assert_eq!(st.at_clock(1.0), st);
    }

    #[test]
    #[should_panic(expected = "outside (0, 1]")]
    fn at_clock_rejects_overclock() {
        let _ = stages(4).at_clock(1.5);
    }

    #[test]
    #[should_panic(expected = "same layers")]
    fn merged_rejects_mismatched_walks() {
        let a = stages(8);
        let mut b = stages(8);
        b.layers.truncate(1);
        let _ = a.merged(&b);
    }

    #[test]
    fn serial_secs_charges_draft_stages_in_full() {
        let mut st = stages(8);
        st.draft_cpu_secs = 5e-3;
        st.draft_npu_secs = 2e-3;
        // 31.5 + 5 + 2 = 38.5 ms: serial mode pays the whole draft round.
        assert!((st.serial_secs() - 38.5e-3).abs() < 1e-12);
    }

    #[test]
    fn draft_cpu_hides_behind_verify_kernels() {
        // A 5 ms draft CPU round against 20.5 ms of verify NPU kernels:
        // the draft worker runs while the NPU verifies, so the period
        // charges only the draft's *NPU* share, serialized on the shared
        // accelerator: 20 + 0.5 + 2 = 22.5 ms. The 5 ms of draft CPU work
        // vanish from the critical path.
        let mut st = stages(8);
        st.draft_cpu_secs = 5e-3;
        st.draft_npu_secs = 2e-3;
        let got = steady_state_step_secs(&st);
        let want = (10.0 + 10.0 + 0.5 + 2.0) * 1e-3;
        assert!((got - want).abs() < 1e-12, "got {got}, want {want}");
        // Serial pays the full 7 ms draft round.
        assert!(st.serial_secs() - got > 15e-3);
    }

    #[test]
    fn slow_draft_round_paces_the_pipeline() {
        // A draft round longer than the verify walk cannot hide: the
        // pipeline degenerates to the draft chain (CPU 30 + NPU 2 ms).
        let mut st = stages(8);
        st.draft_cpu_secs = 30e-3;
        st.draft_npu_secs = 2e-3;
        let got = steady_state_step_secs(&st);
        assert!((got - 32e-3).abs() < 1e-12, "got {got}");
        assert!(got < st.serial_secs());
    }

    #[test]
    fn pure_cpu_draft_submits_no_npu_task() {
        // A host-only proposer (e.g. the bigram draft) leaves the NPU
        // lane's occupancy untouched: the period equals plain decode.
        let base = steady_state_step_secs(&stages(8));
        let mut st = stages(8);
        st.draft_cpu_secs = 5e-3;
        let got = steady_state_step_secs(&st);
        assert!((got - base).abs() < 1e-12, "got {got}, base {base}");
        let draft_util = steady_state_lane_utilization(&st, lane::DRAFT);
        assert!(draft_util > 0.0 && draft_util < 1.0);
    }

    #[test]
    fn zero_draft_fields_leave_the_draft_lane_empty() {
        // Plain decode must take the exact pre-speculation code path: no
        // draft task run, the same graph as before the lane existed.
        let st = stages(8);
        let (lanes, _) = schedule_steady_state(&st);
        assert_eq!(
            (lanes.free[lane::DRAFT], lanes.busy[lane::DRAFT]),
            (0.0, 0.0)
        );
        let it = run_iteration(&mut Lanes::default(), &st, None);
        assert_eq!(it.draft_done, 0.0);
        let mut tl = Timeline::new(lane::COUNT);
        assert!(oracle_iteration(&mut tl, &st, None).draft_done.is_none());
        assert_eq!(tl.task_count(), 7);
    }

    #[test]
    fn at_clock_dilates_draft_stages() {
        let mut st = stages(8);
        st.draft_cpu_secs = 5e-3;
        st.draft_npu_secs = 2e-3;
        let slow = st.at_clock(0.5);
        assert!((slow.draft_cpu_secs - 10e-3).abs() < 1e-15);
        assert!((slow.draft_npu_secs - 4e-3).abs() < 1e-15);
        let got = steady_state_step_secs(&slow);
        assert!((got - 2.0 * steady_state_step_secs(&st)).abs() < 1e-12);
    }

    #[test]
    fn merged_walks_sum_draft_rounds() {
        let mut a = stages(8);
        a.draft_cpu_secs = 1e-3;
        a.draft_npu_secs = 2e-3;
        let mut b = stages(2);
        b.draft_cpu_secs = 3e-3;
        let m = a.merged(&b);
        assert!((m.draft_cpu_secs - 4e-3).abs() < 1e-15);
        assert!((m.draft_npu_secs - 2e-3).abs() < 1e-15);
    }

    #[test]
    fn empty_walk_is_degenerate_but_bounded() {
        let st = StepStages {
            cpu_embed_secs: 1e-3,
            layers: Vec::new(),
            final_npu_secs: 0.0,
            cpu_head_secs: 2e-3,
            switch_secs: 0.0,
            wrap_switch: false,
            batch: 1,
            draft_cpu_secs: 0.0,
            draft_npu_secs: 0.0,
        };
        assert!(steady_state_step_secs(&st) <= st.serial_secs() + 1e-15);
        assert!(single_pass_secs(&st) <= st.serial_secs() + 1e-15);
    }

    /// The oracle's scheduler: serial lanes and finish-to-start edges,
    /// keeping every task. A task starts at the latest of its lane's free
    /// time and its dependencies' finish times; dependencies point at
    /// already submitted tasks, so one forward pass schedules the graph.
    /// [`Lanes`] applies the same rule carry-only.
    mod timeline {
        /// Handle to a task submitted to a [`Timeline`].
        #[derive(Clone, Copy)]
        pub struct TaskId(usize);

        /// A deterministic multi-lane list scheduler.
        pub struct Timeline {
            lane_free: Vec<f64>,
            lane_busy: Vec<f64>,
            finish: Vec<f64>,
            task_lane: Vec<usize>,
            /// Dependencies on another lane that finished, after time 0,
            /// exactly when the task could otherwise start: the ties a
            /// latest-time fold breaks.
            pub cross_lane_ties: usize,
        }

        impl Timeline {
            /// A timeline with `lanes` serial resources, all free at t=0.
            pub fn new(lanes: usize) -> Self {
                assert!(lanes >= 1, "a timeline needs at least one lane");
                Timeline {
                    lane_free: vec![0.0; lanes],
                    lane_busy: vec![0.0; lanes],
                    finish: Vec::new(),
                    task_lane: Vec::new(),
                    cross_lane_ties: 0,
                }
            }

            /// Number of submitted tasks.
            pub fn task_count(&self) -> usize {
                self.finish.len()
            }

            /// Submits a task that occupies `lane` for `duration` seconds
            /// once the lane is free and every dependency has finished.
            ///
            /// # Panics
            ///
            /// Panics if `lane` is out of range or `duration` is negative,
            /// infinite or NaN.
            pub fn submit<'a>(
                &mut self,
                lane: usize,
                duration: f64,
                deps: impl IntoIterator<Item = &'a TaskId>,
            ) -> TaskId {
                assert!(lane < self.lane_free.len(), "lane {lane} out of range");
                assert!(
                    duration >= 0.0 && duration.is_finite(),
                    "task duration must be finite and non-negative, got {duration}"
                );
                let mut start = self.lane_free[lane];
                for d in deps {
                    let f = self.finish[d.0];
                    if f == start && f > 0.0 && self.task_lane[d.0] != lane {
                        self.cross_lane_ties += 1;
                    }
                    start = start.max(f);
                }
                let finish = start + duration;
                self.lane_free[lane] = finish;
                self.lane_busy[lane] += duration;
                self.finish.push(finish);
                self.task_lane.push(lane);
                TaskId(self.finish.len() - 1)
            }

            /// Finish time of a task.
            pub fn finish(&self, t: TaskId) -> f64 {
                self.finish[t.0]
            }

            /// Latest finish time across all tasks (0 when empty): the
            /// schedule's critical-path wall time.
            pub fn makespan(&self) -> f64 {
                self.finish.iter().fold(0.0f64, |acc, &f| acc.max(f))
            }

            /// Total busy seconds accumulated on one lane.
            pub fn lane_busy_secs(&self, lane: usize) -> f64 {
                self.lane_busy[lane]
            }

            /// Busy fraction of one lane over the makespan (0 for an empty
            /// timeline).
            pub fn lane_utilization(&self, lane: usize) -> f64 {
                let span = self.makespan();
                if span > 0.0 {
                    self.lane_busy[lane] / span
                } else {
                    0.0
                }
            }
        }

        #[test]
        fn a_dependency_waits_while_another_lane_runs_alongside() {
            // Two lanes, three tasks: `b` depends on `a`, while `c` runs
            // on the other lane concurrently with both.
            let mut tl = Timeline::new(2);
            let a = tl.submit(0, 2.0, &[]);
            let b = tl.submit(0, 1.0, &[a]);
            let c = tl.submit(1, 2.5, &[]);
            assert_eq!(tl.finish(b), 3.0);
            assert_eq!(tl.finish(c), 2.5);
            assert_eq!(tl.makespan(), 3.0);
        }

        #[test]
        fn same_lane_tasks_serialize_in_submission_order() {
            let mut tl = Timeline::new(1);
            let a = tl.submit(0, 1.0, &[]);
            let b = tl.submit(0, 2.0, &[]);
            assert_eq!(tl.finish(a), 1.0);
            assert_eq!(tl.finish(b), 3.0);
            assert_eq!(tl.makespan(), 3.0);
            assert_eq!(tl.lane_busy_secs(0), 3.0);
        }

        #[test]
        fn independent_lanes_overlap() {
            let mut tl = Timeline::new(3);
            tl.submit(0, 1.0, &[]);
            tl.submit(1, 2.0, &[]);
            tl.submit(2, 0.5, &[]);
            assert_eq!(tl.makespan(), 2.0);
            let serial: f64 = (0..3).map(|l| tl.lane_busy_secs(l)).sum();
            assert_eq!(serial, 3.5);
        }

        #[test]
        fn dependencies_delay_start_across_lanes() {
            let mut tl = Timeline::new(2);
            let a = tl.submit(0, 2.0, &[]);
            let b = tl.submit(1, 1.0, &[a]);
            assert_eq!(tl.finish(b), 3.0);
        }

        #[test]
        fn lane_free_and_deps_combine_with_max() {
            let mut tl = Timeline::new(2);
            // Lane 0 frees at 1.0, but the dependency on lane 1 holds
            // until 5.0.
            let a = tl.submit(0, 1.0, &[]);
            let long = tl.submit(1, 5.0, &[]);
            let c = tl.submit(0, 1.0, &[a, long]);
            assert_eq!(tl.finish(c), 6.0);
            assert_eq!(tl.makespan(), 6.0);
        }

        #[test]
        fn pipelined_iterations_reach_steady_state() {
            // Producer lane feeds consumer lane: after the fill, the
            // period is the max stage time (classic two-stage pipeline).
            let mut tl = Timeline::new(2);
            let mut prev_consume: Option<TaskId> = None;
            let mut finishes = Vec::new();
            for _ in 0..6 {
                let p = tl.submit(0, 1.0, &[]);
                let c = tl.submit(1, 3.0, Some(&p).into_iter().chain(prev_consume.iter()));
                prev_consume = Some(c);
                finishes.push(tl.finish(c));
            }
            // Steady-state period = slowest stage (3.0), not the sum (4.0).
            let period = finishes[5] - finishes[4];
            assert!((period - 3.0).abs() < 1e-12);
            assert!(tl.makespan() < tl.lane_busy_secs(0) + tl.lane_busy_secs(1));
        }

        #[test]
        fn zero_duration_tasks_are_events() {
            let mut tl = Timeline::new(1);
            let a = tl.submit(0, 0.0, &[]);
            assert_eq!(tl.finish(a), 0.0);
            assert_eq!(tl.makespan(), 0.0);
            assert_eq!(tl.lane_utilization(0), 0.0);
        }

        #[test]
        fn lane_utilization_is_busy_over_makespan() {
            let mut tl = Timeline::new(2);
            tl.submit(0, 1.0, &[]);
            tl.submit(0, 1.0, &[]);
            tl.submit(1, 4.0, &[]);
            assert!((tl.lane_utilization(0) - 0.5).abs() < 1e-12);
            assert!((tl.lane_utilization(1) - 1.0).abs() < 1e-12);
        }

        #[test]
        #[should_panic(expected = "out of range")]
        fn bad_lane_panics() {
            let mut tl = Timeline::new(1);
            tl.submit(1, 1.0, &[]);
        }

        #[test]
        #[should_panic(expected = "finite and non-negative")]
        fn negative_duration_panics() {
            let mut tl = Timeline::new(1);
            tl.submit(0, -1.0, &[]);
        }
    }

    /// Tasks of one oracle iteration that later iterations depend on.
    struct IterTasks {
        last_layer: Option<TaskId>,
        penultimate_layer: Option<TaskId>,
        last_dispatch: Option<TaskId>,
        final_norm: TaskId,
        wrap_switch: Option<TaskId>,
        last_stream_compute: Option<TaskId>,
        penult_stream_compute: Option<TaskId>,
        draft_done: Option<TaskId>,
    }

    /// The oracle: the stage graph as a task list on a [`Timeline`], every
    /// dependency list a `Vec`.
    /// [`run_iteration`] must reproduce every finish time, lane sum and
    /// makespan it yields bit for bit.
    fn oracle_iteration(tl: &mut Timeline, st: &StepStages, prev: Option<&IterTasks>) -> IterTasks {
        let b = st.batch.max(1) as f64;
        // The CPU block between two NPU walks: lm_head+sampling of the
        // previous step, then this step's embedding, streamed row by row.
        let block = match prev {
            Some(_) => st.cpu_head_secs + st.cpu_embed_secs,
            None => st.cpu_embed_secs,
        };
        let first_share = block / b;
        let mut first_deps: Vec<TaskId> = Vec::new();
        if let Some(p) = prev {
            first_deps.push(p.final_norm);
        }
        let cpu_first = tl.submit(lane::CPU, first_share, &first_deps);
        let cpu_rest = tl.submit(lane::CPU, block - first_share, &[]);

        let mut prev_layer: Option<TaskId> = prev.and_then(|p| p.last_layer);
        let mut penult_layer: Option<TaskId> = prev.and_then(|p| p.penultimate_layer);
        let mut prev_dispatch: Option<TaskId> = prev.and_then(|p| p.last_dispatch);
        let mut last_stream: Option<TaskId> = prev.and_then(|p| p.last_stream_compute);
        let mut penult_stream: Option<TaskId> = prev.and_then(|p| p.penult_stream_compute);
        let mut last_layer = None;
        let mut last_dispatch = None;
        for (i, layer) in st.layers.iter().enumerate() {
            // Session switch at a shard boundary: starts once the previous
            // shard's commands are queued, overlapping its tail kernels.
            let switch = if layer.switch_before && i > 0 {
                let deps: Vec<TaskId> = prev_dispatch.into_iter().collect();
                Some(tl.submit(lane::SWITCH, st.switch_secs, &deps))
            } else {
                None
            };
            // Command dispatch for layer i: depth-2 ring — submitted while
            // layer i-1 executes, i.e. after layer i-2 completed. Commands for
            // a new shard go to the new session's ring, after the switch.
            let mut ddeps: Vec<TaskId> = Vec::new();
            if let Some(two_back) = penult_layer {
                ddeps.push(two_back);
            }
            if let Some(s) = switch {
                ddeps.push(s);
            }
            let disp = tl.submit(lane::DISPATCH, layer.dispatch_secs, &ddeps);
            // Weight prefetch for a streamed layer: DDR staging -> session
            // window. The fetch starts as soon as the DMA engine is free and
            // the slot it reuses was drained (the compute of the streamed
            // layer two back — a two-slot double buffer). Resident layers
            // (fetch == 0) submit nothing, keeping their task graph
            // bit-identical to the pre-streaming schedule.
            let fetch = if layer.weight_fetch_secs > 0.0 {
                let fdeps: Vec<TaskId> = penult_stream.into_iter().collect();
                Some(tl.submit(lane::DMA, layer.weight_fetch_secs, &fdeps))
            } else {
                None
            };
            // NPU compute: after its commands, its shard's switch, its weight
            // fetch, the layer before it, and — for the walk's head — the CPU
            // rows it consumes.
            let mut ldeps: Vec<TaskId> = vec![disp];
            if let Some(s) = switch {
                ldeps.push(s);
            }
            if let Some(f) = fetch {
                ldeps.push(f);
            }
            if let Some(pl) = prev_layer {
                ldeps.push(pl);
            }
            if i == 0 {
                ldeps.push(cpu_first);
                if let Some(w) = prev.and_then(|p| p.wrap_switch) {
                    ldeps.push(w);
                }
                // A verify pass consumes the proposals drafted during the
                // previous iteration.
                if let Some(d) = prev.and_then(|p| p.draft_done) {
                    ldeps.push(d);
                }
            }
            let lt = tl.submit(lane::NPU, layer.npu_secs, &ldeps);
            if fetch.is_some() {
                penult_stream = last_stream;
                last_stream = Some(lt);
            }
            penult_layer = prev_layer;
            prev_layer = Some(lt);
            last_layer = Some(lt);
            prev_dispatch = Some(disp);
            last_dispatch = Some(disp);
        }
        // Final norm: the full-batch barrier. Row chunks stream through the
        // layer walk as the CPU emits them, but the final norm (and the
        // lm_head behind it) needs every row, so it waits for the whole CPU
        // block on top of the NPU lane serialization.
        let final_norm = tl.submit(lane::NPU, st.final_npu_secs, &[cpu_rest]);
        // Wrap-around switch back to shard 0, overlapping the CPU tail.
        let wrap_switch = if st.wrap_switch {
            let deps: Vec<TaskId> = last_dispatch.into_iter().collect();
            Some(tl.submit(lane::SWITCH, st.switch_secs, &deps))
        } else {
            None
        };
        // The draft model's next speculation round (speculative decoding
        // only). Its CPU half runs on the dedicated draft worker, gated on the
        // first rows of this iteration's CPU block (the accept decision of the
        // previous verify streams out row by row) and on the draft's own
        // previous round. Its NPU half shares the target's accelerator: being
        // submitted after the final norm, it queues behind the verify kernels
        // in lane order, so only this NPU share of the draft round can ever be
        // exposed on the critical path — the CPU half hides whenever the
        // verify walk is longer. Plain decode (both fields 0) submits nothing
        // and builds the exact pre-speculation task graph.
        let draft_done = if st.draft_cpu_secs > 0.0 || st.draft_npu_secs > 0.0 {
            let mut ddeps: Vec<TaskId> = vec![cpu_first];
            if let Some(d) = prev.and_then(|p| p.draft_done) {
                ddeps.push(d);
            }
            let draft_cpu = tl.submit(lane::DRAFT, st.draft_cpu_secs, &ddeps);
            if st.draft_npu_secs > 0.0 {
                Some(tl.submit(lane::NPU, st.draft_npu_secs, &[draft_cpu]))
            } else {
                Some(draft_cpu)
            }
        } else {
            None
        };
        IterTasks {
            last_layer,
            penultimate_layer: penult_layer,
            last_dispatch,
            final_norm,
            wrap_switch,
            last_stream_compute: last_stream,
            penult_stream_compute: penult_stream,
            draft_done,
        }
    }

    /// [`schedule_steady_state`] over the oracle's iterations, one
    /// timeline of all ten.
    fn oracle_steady_state(st: &StepStages) -> (Timeline, f64) {
        let mut tl = Timeline::new(lane::COUNT);
        let mut prev: Option<IterTasks> = None;
        let mut marks = [0.0f64; STEADY_ITERS];
        for mark in marks.iter_mut() {
            let it = oracle_iteration(&mut tl, st, prev.as_ref());
            *mark = tl.finish(it.final_norm);
            prev = Some(it);
        }
        let period = marks[STEADY_ITERS - 1] - marks[STEADY_ITERS - 2];
        (tl, period.min(st.serial_secs()))
    }

    /// [`single_pass_secs`] over the oracle's iteration.
    fn oracle_single_pass(st: &StepStages) -> f64 {
        let mut tl = Timeline::new(lane::COUNT);
        let it = oracle_iteration(&mut tl, st, None);
        tl.submit(lane::CPU, st.cpu_head_secs, &[it.final_norm]);
        tl.makespan().min(st.serial_secs())
    }

    /// A seeded xorshift64* stream for the differential test.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) % n
        }

        /// A duration below 10 ms: exactly zero one time in four, of
        /// either sign. On a `grid`, the rest are whole multiples of
        /// 2^-10 s, whose sums are exact, so finish times on different
        /// lanes tie exactly.
        fn secs(&mut self, grid: bool) -> f64 {
            match self.below(8) {
                0 => 0.0,
                1 => -0.0,
                _ if grid => self.below(11) as f64 / 1024.0,
                _ => self.below(10_000_000) as f64 * 1e-9,
            }
        }
    }

    /// Random stages: batch 1–16 and 1–40 layers, with shard boundaries
    /// (and the wrap switch), streamed layers, draft rounds and grid
    /// durations (exact ties) each in some of the draws. A draft round's
    /// CPU half runs up to 80 ms, longer than many walks, and half the
    /// rounds have no NPU half (a host-only proposer), so the draft lane
    /// can finish a schedule last.
    fn random_stages(rng: &mut Rng) -> StepStages {
        let sharded = rng.below(2) == 0;
        let streamed = rng.below(3) == 0;
        let draft = rng.below(3) == 0;
        let draft_npu = draft && rng.below(2) == 0;
        let grid = rng.below(3) == 0;
        let layers = (0..1 + rng.below(40))
            .map(|_| LayerStage {
                npu_secs: rng.secs(grid),
                dispatch_secs: rng.secs(grid),
                switch_before: sharded && rng.below(5) == 0,
                weight_fetch_secs: if streamed && rng.below(2) == 0 {
                    rng.secs(grid)
                } else {
                    0.0
                },
            })
            .collect();
        let batch = 1 + rng.below(16) as usize;
        let mut pick = |on: bool| if on { rng.secs(grid) } else { 0.0 };
        StepStages {
            cpu_embed_secs: pick(true),
            layers,
            final_npu_secs: pick(true),
            cpu_head_secs: pick(true),
            switch_secs: pick(sharded),
            wrap_switch: sharded,
            batch,
            draft_cpu_secs: 8.0 * pick(draft),
            draft_npu_secs: pick(draft_npu),
        }
    }

    /// The evaluator's `>` maxima and the makespan it reads off the lane
    /// free times against the oracle's `f64::max` and running makespan,
    /// on draws with −0.0 durations, exact ties between lanes and
    /// schedules that end on the NPU, switch or draft lane.
    #[test]
    fn stack_scheduler_matches_the_vec_oracle_bit_for_bit() {
        let mut rng = Rng(0x5eed_2026_0b0e_0001);
        let mut ties = 0;
        let mut last_lane = [0; lane::COUNT];
        for case in 0..400 {
            let st = random_stages(&mut rng);
            let (want_tl, want_period) = oracle_steady_state(&st);
            ties += want_tl.cross_lane_ties;
            // The evaluator keeps no task list: its lane sums and makespan
            // must be the timeline's, bit for bit.
            let (lanes, _) = schedule_steady_state(&st);
            assert_eq!(
                lanes.makespan().to_bits(),
                want_tl.makespan().to_bits(),
                "case {case}"
            );
            for (l, &free) in lanes.free.iter().enumerate() {
                last_lane[l] += usize::from(free > 0.0 && free == lanes.makespan());
            }
            for (l, busy) in lanes.busy.iter().enumerate() {
                let want = want_tl.lane_busy_secs(l);
                assert_eq!(busy.to_bits(), want.to_bits(), "case {case} lane {l}");
            }
            let ss = steady_state(&st);
            assert_eq!(
                ss.period_secs.to_bits(),
                want_period.to_bits(),
                "case {case}: {st:?}"
            );
            assert_eq!(steady_state_step_secs(&st).to_bits(), want_period.to_bits());
            for (l, util) in ss.lane_util.iter().enumerate() {
                let want = want_tl.lane_utilization(l);
                assert_eq!(util.to_bits(), want.to_bits(), "case {case} lane {l}");
                let alone = steady_state_lane_utilization(&st, l);
                assert_eq!(alone.to_bits(), want.to_bits(), "case {case} lane {l}");
            }
            assert_eq!(
                single_pass_secs(&st).to_bits(),
                oracle_single_pass(&st).to_bits(),
                "case {case}: {st:?}"
            );
        }
        // The draws reach the cases where the folds could differ, and
        // every lane that can finish a steady-state schedule last does.
        assert!(ties > 1_000, "only {ties} tied dependencies");
        for l in [lane::NPU, lane::SWITCH, lane::DRAFT] {
            assert!(last_lane[l] > 0, "lane {l} never finished last");
        }
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn a_nan_stage_duration_panics() {
        let mut st = stages(8);
        st.layers[1].npu_secs = f64::NAN;
        steady_state_step_secs(&st);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn a_negative_stage_duration_panics() {
        let mut st = stages(8);
        st.layers[0].dispatch_secs = -1e-6;
        steady_state(&st);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn a_negative_cpu_tail_panics_in_a_single_pass() {
        let mut st = stages(8);
        st.cpu_head_secs = -1e-3;
        single_pass_secs(&st);
    }
}
