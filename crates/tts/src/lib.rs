//! Parallel test-time scaling algorithms and simulated reward models.
//!
//! Implements the three methods the paper runs on the NPU (Section 2.1):
//! **Best-of-N** with an outcome reward model, **step-level beam search**
//! with a process reward model, and **self-consistency** (majority voting).
//! The algorithms are real — they sample trajectories, score them, prune
//! beams — but the policy behind them is a *calibrated stochastic policy*
//! ([`policy::CalibratedPolicy`]) rather than a 1.5B-parameter checkpoint:
//! per-task solve probability follows a logistic curve in task difficulty
//! whose skill parameter is fitted numerically so that pass@1 matches the
//! paper's reported baselines (see [`calib`]). Reward models are noisy
//! scorers with calibrated discrimination, standing in for
//! Skywork-1.5B-PRM.
//!
//! For true end-to-end runs through the simulated NPU, [`llm_policy`] wraps
//! the tiny functional transformer: batched decode, temperature sampling,
//! answer extraction and outcome verification all execute for real.

pub mod beam_search;
pub mod best_of_n;
pub mod calib;
pub mod llm_policy;
pub mod policy;
pub mod self_consistency;
pub mod spec_decode;
pub mod verifier;

pub use beam_search::{beam_search, BeamSearchConfig};
pub use best_of_n::{best_of_n, pass_at_n_oracle};
pub use calib::{quant_capability, quant_skill_penalty};
pub use policy::{CalibratedPolicy, Step, Trajectory};
pub use self_consistency::self_consistency;
pub use spec_decode::{
    charge_accept_loop, draft_round_lanes, greedy_generate, speculative_decode_pipeline,
    speculative_generate, AcceptanceTrace, BigramDraft, DraftLenController, DraftModel,
    SpecOutcome, SpecRound,
};
pub use verifier::{SimOrm, SimPrm};
