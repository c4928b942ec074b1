//! Event-timeline scheduler: per-engine lanes with dependency edges.
//!
//! The phase-level cost model ([`crate::cost`]) composes time *within* a
//! kernel — engines overlap inside a phase, phases are sequential. This
//! module provides the next level up: a deterministic list scheduler over
//! named *lanes* (one per engine or runtime thread) where each submitted
//! task starts as soon as its lane is free **and** every dependency has
//! finished. The makespan of such a schedule is the critical path of the
//! task graph, which is exactly the wall time of a pipelined runtime that
//! overlaps independent work across engines (paper Section 7.2.2: the CPU
//! lm_head of token *t* runs while the NPU computes the first layers of
//! token *t+1*; DMA hides behind compute; session switches hide behind the
//! previous shard's tail kernels). The weight-streaming hierarchy adds a
//! dedicated *DMA prefetch lane*: cold layers' DDR weight fetches are
//! submitted there with finish-to-start edges into the next layer's
//! kernels, so a fetch overlaps the previous layer's compute and only its
//! exposed remainder lengthens the step.
//!
//! The scheduler is intentionally simple and fully deterministic:
//!
//! - a **lane** is a serial resource (one engine, one dispatch thread);
//!   tasks on the same lane execute in submission order, back to back when
//!   dependencies allow;
//! - a **task** occupies one lane for a fixed duration and may depend on
//!   any previously submitted tasks (finish-to-start edges);
//! - tasks must be submitted in a topological order of the dependency
//!   graph (dependencies refer to already submitted tasks), which makes
//!   scheduling a single forward pass with no solver.
//!
//! `edgellm::overlap` prices decode/prefill step graphs by this rule
//! without keeping the task list (only lane state and the finish times
//! the next step reads), and its tests build the same graphs on a
//! `Timeline` as the oracle; the unit tests below pin the scheduling
//! semantics in isolation.
//!
//! # Examples
//!
//! Two lanes, three tasks: `b` depends on `a`, while `c` runs on the other
//! lane concurrently with both.
//!
//! ```
//! use hexsim::timeline::Timeline;
//!
//! let mut tl = Timeline::new(2);
//! let a = tl.submit(0, 2.0, &[]);
//! let b = tl.submit(0, 1.0, &[a]);
//! let c = tl.submit(1, 2.5, &[]);
//! assert_eq!(tl.finish(b), 3.0);
//! assert_eq!(tl.finish(c), 2.5);
//! assert_eq!(tl.makespan(), 3.0);
//! ```

/// Handle to a task submitted to a [`Timeline`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TaskId(usize);

#[derive(Clone, Copy, Debug)]
struct Task {
    start: f64,
    finish: f64,
}

/// A deterministic multi-lane list scheduler (see module docs).
#[derive(Clone, Debug)]
pub struct Timeline {
    lane_free: Vec<f64>,
    lane_busy: Vec<f64>,
    tasks: Vec<Task>,
}

impl Timeline {
    /// Creates a timeline with `lanes` serial resources, all free at t=0.
    pub fn new(lanes: usize) -> Self {
        assert!(lanes >= 1, "a timeline needs at least one lane");
        Timeline {
            lane_free: vec![0.0; lanes],
            lane_busy: vec![0.0; lanes],
            tasks: Vec::new(),
        }
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.lane_free.len()
    }

    /// Number of submitted tasks.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Submits a task: it starts at the earliest instant when its lane is
    /// free and every dependency has finished, and occupies the lane for
    /// `duration` seconds. Returns the task's handle.
    ///
    /// `deps` is any collection of handles (`&[a, b]`, `&vec`, an
    /// `Option`), so callers can gather them without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range or `duration` is negative/NaN.
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
            start = start.max(self.tasks[d.0].finish);
        }
        let finish = start + duration;
        self.lane_free[lane] = finish;
        self.lane_busy[lane] += duration;
        self.tasks.push(Task { start, finish });
        TaskId(self.tasks.len() - 1)
    }

    /// Start time of a task.
    pub fn start(&self, t: TaskId) -> f64 {
        self.tasks[t.0].start
    }

    /// Finish time of a task.
    pub fn finish(&self, t: TaskId) -> f64 {
        self.tasks[t.0].finish
    }

    /// Latest finish time across all tasks (0 when empty) — the schedule's
    /// critical-path wall time.
    pub fn makespan(&self) -> f64 {
        self.tasks.iter().fold(0.0f64, |acc, t| acc.max(t.finish))
    }

    /// Total busy seconds accumulated on one lane.
    pub fn lane_busy_secs(&self, lane: usize) -> f64 {
        self.lane_busy[lane]
    }

    /// Busy fraction of one lane over the schedule's makespan (0 for an
    /// empty timeline) — how much of the critical-path wall time the
    /// lane's resource actually worked.
    pub fn lane_utilization(&self, lane: usize) -> f64 {
        let span = self.makespan();
        if span > 0.0 {
            self.lane_busy[lane] / span
        } else {
            0.0
        }
    }

    /// Sum of every task's duration — the wall time a fully serial
    /// executor would need. The makespan can never exceed this.
    pub fn serial_secs(&self) -> f64 {
        self.lane_busy.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_lane_tasks_serialize_in_submission_order() {
        let mut tl = Timeline::new(1);
        let a = tl.submit(0, 1.0, &[]);
        let b = tl.submit(0, 2.0, &[]);
        assert_eq!(tl.start(a), 0.0);
        assert_eq!(tl.start(b), 1.0);
        assert_eq!(tl.finish(b), 3.0);
        assert_eq!(tl.makespan(), 3.0);
        assert_eq!(tl.serial_secs(), 3.0);
    }

    #[test]
    fn independent_lanes_overlap() {
        let mut tl = Timeline::new(3);
        tl.submit(0, 1.0, &[]);
        tl.submit(1, 2.0, &[]);
        tl.submit(2, 0.5, &[]);
        assert_eq!(tl.makespan(), 2.0);
        assert_eq!(tl.serial_secs(), 3.5);
    }

    #[test]
    fn dependencies_delay_start_across_lanes() {
        let mut tl = Timeline::new(2);
        let a = tl.submit(0, 2.0, &[]);
        let b = tl.submit(1, 1.0, &[a]);
        assert_eq!(tl.start(b), 2.0);
        assert_eq!(tl.finish(b), 3.0);
    }

    #[test]
    fn lane_free_and_deps_combine_with_max() {
        let mut tl = Timeline::new(2);
        let a = tl.submit(0, 1.0, &[]); // lane 0 busy until 1.0
        let long = tl.submit(1, 5.0, &[]); // lane 1 busy until 5.0
                                           // Lane 0 frees at 1.0 but the dependency holds until 5.0.
        let c = tl.submit(0, 1.0, &[a, long]);
        assert_eq!(tl.start(c), 5.0);
        assert_eq!(tl.makespan(), 6.0);
    }

    #[test]
    fn pipelined_iterations_reach_steady_state() {
        // Producer lane feeds consumer lane: after the fill, the period is
        // the max stage time (classic two-stage pipeline).
        let mut tl = Timeline::new(2);
        let mut prev_consume: Option<TaskId> = None;
        let mut finishes = Vec::new();
        for _ in 0..6 {
            let p = tl.submit(0, 1.0, &[]);
            let deps: Vec<TaskId> = Some(p).iter().chain(prev_consume.iter()).copied().collect();
            let c = tl.submit(1, 3.0, &deps);
            prev_consume = Some(c);
            finishes.push(tl.finish(c));
        }
        // Steady-state period = slowest stage (3.0), not the sum (4.0).
        let period = finishes[5] - finishes[4];
        assert!((period - 3.0).abs() < 1e-12);
        assert!(tl.makespan() < tl.serial_secs());
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
