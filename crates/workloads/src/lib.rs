//! Synthetic verifiable workloads for the test-time-scaling experiments.
//!
//! The paper evaluates on MATH500 and GSM8K (verifiable math), WinoGrande
//! and MMLU (multiple choice) and Wikitext-2 (perplexity). Those datasets
//! are upstream artifacts of specific checkpoints; this reproduction
//! replaces them with *generators* that preserve the properties the
//! experiments depend on:
//!
//! - [`mathgen`] — arithmetic/algebra/word problems with exact integer
//!   answers (so Best-of-N, beam search and self-consistency have a ground
//!   truth to verify against) and a controllable difficulty distribution
//!   (whose spread is what gives parallel-scaling curves their Figure 5
//!   saturation shape).
//! - [`choice`] — k-way multiple-choice items with latent signal strength,
//!   the WinoGrande/MMLU analog used by the quantization accuracy tables.

pub mod choice;
pub mod mathgen;

pub use mathgen::{DatasetKind, MathTask, TaskGenerator};
