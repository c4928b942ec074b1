//! Batched KV cache with a fixed context budget.
//!
//! The runtime allocates the cache in NPU shared memory up front at a fixed
//! token budget (the paper reports constant dmabuf totals at a 4096-token
//! budget, Section 7.5), so capacity is reserved at construction and
//! appends fail past the budget. A functional cache keeps one
//! [`KvBlocks`] per (layer, sequence, KV head): each appended position is
//! widened to FP32 once, and FlashAttention reads the blocks in place
//! ([`FlashAttention::run_blocks`](htpops::attention::FlashAttention::run_blocks)).
//! Blocks are shared copy-on-write, so a snapshot, a restore or a prompt
//! broadcast copies no rows: a slot copies only the prompt's partial last
//! block, on its first append. A cache takes its execution mode from the
//! context that builds it: a cost-only cache counts tokens but holds no
//! rows, so every history it hands out is empty.

use hexsim::f16::F16;
use hexsim::prelude::*;
use htpops::attention::KvBlocks;

use crate::config::ModelConfig;

/// One sequence's KV history — the shared-prompt state a
/// continuous-batching scheduler re-installs into freed slots when it
/// admits a queued sequence (see `decode_session`). It shares its blocks
/// with the cache it came from until either side appends.
#[derive(Clone, Debug, Default)]
pub struct KvSeqSnapshot {
    /// Tokens captured.
    len: usize,
    /// `[layer][kv_head]` histories, flattened (empty in cost-only mode).
    heads: Vec<KvBlocks>,
}

impl KvSeqSnapshot {
    /// Number of tokens the snapshot carries.
    pub fn tokens(&self) -> usize {
        self.len
    }
}

/// Batched per-layer KV storage.
pub struct KvCache {
    layers: usize,
    kv_heads: usize,
    head_dim: usize,
    batch: usize,
    budget: usize,
    /// `heads[(layer * batch + seq) * kv_heads + head]`: one KV head's
    /// history (empty in cost-only mode).
    heads: Vec<KvBlocks>,
    /// Tokens stored per sequence.
    len: Vec<usize>,
    /// The history every head of a cost-only cache reads as.
    no_rows: KvBlocks,
    /// Per-layer DDR residency handles (shape accounting; one buffer per
    /// layer so multi-session sharding can place each layer's KV slice in
    /// the session holding that layer's weights). Release with
    /// [`KvCache::free`].
    bufs: Vec<DdrBuffer>,
}

impl KvCache {
    /// Allocates a cache for `batch` sequences with a *total* token budget
    /// shared across the batch (prompt + completions), reserving the DDR
    /// footprint immediately — one buffer per layer.
    pub fn new(
        ctx: &mut NpuContext,
        cfg: &ModelConfig,
        batch: usize,
        budget: usize,
    ) -> SimResult<Self> {
        let layer_bytes = cfg.kv_cache_layer_bytes(budget);
        let mut bufs = Vec::with_capacity(cfg.layers);
        for _ in 0..cfg.layers {
            match ctx.ddr_alloc(layer_bytes) {
                Ok(buf) => bufs.push(buf),
                Err(e) => {
                    // Unwind the partial reservation so a failed open
                    // cannot leak session VA space.
                    for buf in bufs {
                        ctx.ddr_free(buf);
                    }
                    return Err(e);
                }
            }
        }
        let heads = if ctx.mode == ExecMode::Functional {
            vec![KvBlocks::new(cfg.head_dim); cfg.layers * batch * cfg.kv_heads]
        } else {
            Vec::new()
        };
        Ok(KvCache {
            layers: cfg.layers,
            kv_heads: cfg.kv_heads,
            head_dim: cfg.head_dim,
            batch,
            budget,
            heads,
            len: vec![0; batch],
            no_rows: KvBlocks::new(cfg.head_dim),
            bufs,
        })
    }

    /// Returns the cache's DDR reservation (every per-layer buffer) to
    /// the context. The simulated DDR mapping is owned by the context,
    /// not dropped with the cache, so abandoning a cache without calling
    /// this leaks session VA space.
    pub fn free(&self, ctx: &mut NpuContext) {
        for &buf in &self.bufs {
            ctx.ddr_free(buf);
        }
    }

    /// Number of sequences.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Tokens stored for a sequence.
    pub fn len(&self, seq: usize) -> usize {
        self.len[seq]
    }

    /// Returns `true` if no tokens are stored for the sequence.
    pub fn is_empty(&self, seq: usize) -> bool {
        self.len[seq] == 0
    }

    /// Total tokens across the batch.
    pub fn total_tokens(&self) -> usize {
        self.len.iter().sum()
    }

    /// Whether the cache holds rows (functional mode).
    fn functional(&self) -> bool {
        !self.heads.is_empty()
    }

    /// The histories of one sequence's KV heads at one layer.
    fn seq_heads(&self, layer: usize, seq: usize) -> std::ops::Range<usize> {
        let first = (layer * self.batch + seq) * self.kv_heads;
        first..first + self.kv_heads
    }

    /// One KV head's history of one sequence at one layer — the
    /// FlashAttention input, read in place. Empty in a cost-only cache.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn blocks(&self, layer: usize, seq: usize, head: usize) -> &KvBlocks {
        assert!(layer < self.layers && seq < self.batch && head < self.kv_heads);
        if self.functional() {
            &self.heads[self.seq_heads(layer, seq)][head]
        } else {
            &self.no_rows
        }
    }

    /// Appends one position's K/V rows (`[kv_dim]` each) for a sequence at
    /// a layer. Length bookkeeping advances when `layer == 0`. A cost-only
    /// cache stores no rows, so it ignores them (callers pass empty ones).
    ///
    /// Returns an error when the shared budget is exhausted.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches in a functional cache.
    pub fn append(
        &mut self,
        layer: usize,
        seq: usize,
        k_row: &[F16],
        v_row: &[F16],
    ) -> SimResult<()> {
        if layer == 0 {
            if self.total_tokens() + 1 > self.budget {
                return Err(SimError::Unsupported {
                    reason: format!("KV budget of {} tokens exhausted", self.budget),
                });
            }
            self.len[seq] += 1;
        }
        if self.functional() {
            let kv_dim = self.kv_heads * self.head_dim;
            assert_eq!(k_row.len(), kv_dim);
            assert_eq!(v_row.len(), kv_dim);
            let d = self.head_dim;
            let range = self.seq_heads(layer, seq);
            for ((head, k), v) in self.heads[range]
                .iter_mut()
                .zip(k_row.chunks_exact(d))
                .zip(v_row.chunks_exact(d))
            {
                head.push(k, v);
            }
        }
        Ok(())
    }

    /// Cost-only helper: marks `n` tokens as present for a sequence
    /// without storing data (used by latency sweeps to set up a context
    /// length directly).
    ///
    /// # Panics
    ///
    /// Panics if the fill would exceed the budget or the cache is
    /// functional (data-carrying caches must use `append`).
    pub fn fast_fill(&mut self, seq: usize, n: usize) {
        assert!(!self.functional(), "fast_fill is for cost-only caches");
        let others: usize = self
            .len
            .iter()
            .enumerate()
            .filter(|(s, _)| *s != seq)
            .map(|(_, l)| l)
            .sum();
        assert!(others + n <= self.budget, "fast_fill exceeds KV budget");
        self.len[seq] = n;
    }

    /// Clears one sequence's KV and returns its tokens to the shared
    /// budget. This is the slot-reuse primitive behind continuous
    /// batching: a trajectory that finishes early frees its slot so a
    /// queued sample can be admitted in its place.
    pub fn reset_seq(&mut self, seq: usize) {
        self.truncate_seq(seq, 0);
    }

    /// Truncates one sequence back to `new_len` tokens, returning the
    /// discarded tail to the shared budget. This is the speculative-decode
    /// rollback primitive: a verify pass appends `k+1` drafted positions,
    /// and the rejected suffix is dropped in place instead of rebuilding
    /// the cache from scratch.
    ///
    /// # Panics
    ///
    /// Panics if `new_len` exceeds the sequence's current length.
    pub fn truncate_seq(&mut self, seq: usize, new_len: usize) {
        assert!(
            new_len <= self.len[seq],
            "truncate_seq({new_len}) past current length {}",
            self.len[seq]
        );
        self.len[seq] = new_len;
        if self.functional() {
            for layer in 0..self.layers {
                let range = self.seq_heads(layer, seq);
                for head in &mut self.heads[range] {
                    head.truncate(new_len);
                }
            }
        }
    }

    /// Captures one sequence's KV (typically the shared prompt after
    /// prefill) so it can be re-installed into freed slots later. Copies
    /// no rows: the snapshot shares the sequence's blocks.
    pub fn snapshot_seq(&self, seq: usize) -> KvSeqSnapshot {
        let heads = if self.functional() {
            (0..self.layers)
                .flat_map(|layer| self.heads[self.seq_heads(layer, seq)].iter().cloned())
                .collect()
        } else {
            Vec::new()
        };
        KvSeqSnapshot {
            len: self.len[seq],
            heads,
        }
    }

    /// Replaces one sequence's KV with a snapshot (admission of a new
    /// sequence into a freed slot), sharing the snapshot's blocks. Returns
    /// an error when the shared budget cannot absorb the snapshot's
    /// tokens.
    pub fn restore_seq(&mut self, seq: usize, snap: &KvSeqSnapshot) -> SimResult<()> {
        let others: usize = self.total_tokens() - self.len[seq];
        if others + snap.len > self.budget {
            return Err(SimError::Unsupported {
                reason: format!("KV budget of {} tokens exhausted", self.budget),
            });
        }
        self.len[seq] = snap.len;
        if self.functional() {
            assert_eq!(
                snap.heads.len(),
                self.layers * self.kv_heads,
                "functional cache needs a functional snapshot"
            );
            for (layer, saved) in snap.heads.chunks_exact(self.kv_heads).enumerate() {
                let range = self.seq_heads(layer, seq);
                self.heads[range].clone_from_slice(saved);
            }
        }
        Ok(())
    }

    /// Shares sequence 0's cache with every other sequence (prompt
    /// broadcast after a shared prefill; test-time scaling fans one prompt
    /// out to N samples).
    pub fn broadcast_prompt(&mut self) {
        let n0 = self.len[0];
        for s in 1..self.batch {
            self.len[s] = n0;
        }
        for layer_heads in self.heads.chunks_exact_mut(self.batch * self.kv_heads) {
            let (first, rest) = layer_heads.split_at_mut(self.kv_heads);
            for seq_heads in rest.chunks_exact_mut(self.kv_heads) {
                seq_heads.clone_from_slice(first);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ModelConfig, ModelId};

    fn setup(batch: usize, budget: usize) -> (NpuContext, KvCache, ModelConfig) {
        let mut ctx = NpuContext::new(DeviceProfile::v75(), ExecMode::Functional);
        let cfg = ModelConfig::for_id(ModelId::Tiny);
        let cache = KvCache::new(&mut ctx, &cfg, batch, budget).unwrap();
        (ctx, cache, cfg)
    }

    fn row(cfg: &ModelConfig, tag: f32) -> Vec<F16> {
        (0..cfg.kv_dim())
            .map(|i| F16::from_f32(tag + i as f32 * 0.01))
            .collect()
    }

    #[test]
    fn append_and_view() {
        let (_ctx, mut cache, cfg) = setup(2, 64);
        for layer in 0..cfg.layers {
            cache
                .append(layer, 0, &row(&cfg, 1.0), &row(&cfg, 2.0))
                .unwrap();
        }
        assert_eq!(cache.len(0), 1);
        assert_eq!(cache.len(1), 0);
        assert_eq!(cache.blocks(0, 0, 0).len(), 1);
        assert!(cache.blocks(0, 1, 0).is_empty());
        let (k, v) = cache.blocks(0, 0, 0).position(0);
        assert_eq!(k.len(), cfg.head_dim);
        assert_eq!(k[0], 1.0);
        assert_eq!(v[0], 2.0);
    }

    #[test]
    fn budget_enforced_across_batch() {
        let (_ctx, mut cache, cfg) = setup(2, 3);
        for seq_tok in [(0, 0), (1, 0), (0, 1)] {
            let _ = seq_tok;
        }
        cache
            .append(0, 0, &row(&cfg, 0.0), &row(&cfg, 0.0))
            .unwrap();
        cache
            .append(0, 1, &row(&cfg, 0.0), &row(&cfg, 0.0))
            .unwrap();
        cache
            .append(0, 0, &row(&cfg, 0.0), &row(&cfg, 0.0))
            .unwrap();
        let err = cache
            .append(0, 1, &row(&cfg, 0.0), &row(&cfg, 0.0))
            .unwrap_err();
        assert!(matches!(err, SimError::Unsupported { .. }));
    }

    #[test]
    fn broadcast_prompt_copies_seq0() {
        let (_ctx, mut cache, cfg) = setup(3, 64);
        for layer in 0..cfg.layers {
            cache
                .append(layer, 0, &row(&cfg, 5.0), &row(&cfg, 6.0))
                .unwrap();
        }
        cache.broadcast_prompt();
        for s in 0..3 {
            assert_eq!(cache.len(s), 1);
            let (k, _) = cache.blocks(1, s, 0).position(0);
            assert_eq!(k[0], 5.0);
        }
    }

    #[test]
    fn reset_restore_reuses_slots_within_budget() {
        // Budget 4: a 2-token prompt fits twice, not three times — unless
        // a slot is reset in between (the continuous-batching invariant).
        let (_ctx, mut cache, cfg) = setup(3, 4);
        for layer in 0..cfg.layers {
            cache
                .append(layer, 0, &row(&cfg, 1.0), &row(&cfg, 2.0))
                .unwrap();
            cache
                .append(layer, 0, &row(&cfg, 3.0), &row(&cfg, 4.0))
                .unwrap();
        }
        let snap = cache.snapshot_seq(0);
        assert_eq!(snap.tokens(), 2);
        cache.restore_seq(1, &snap).unwrap();
        let err = cache.restore_seq(2, &snap).unwrap_err();
        assert!(matches!(err, SimError::Unsupported { .. }));
        // Retiring slot 0 returns its tokens; slot 2 can now be admitted.
        cache.reset_seq(0);
        assert_eq!(cache.len(0), 0);
        cache.restore_seq(2, &snap).unwrap();
        let (k, v) = cache.blocks(0, 2, 0).position(0);
        assert_eq!(k[0], 1.0);
        assert_eq!(v[0], 2.0);
        assert_eq!(cache.total_tokens(), 4);
    }

    #[test]
    fn truncate_seq_drops_the_rejected_tail_in_place() {
        let (_ctx, mut cache, cfg) = setup(2, 8);
        for tag in 0..4 {
            for layer in 0..cfg.layers {
                cache
                    .append(layer, 0, &row(&cfg, tag as f32), &row(&cfg, -(tag as f32)))
                    .unwrap();
            }
        }
        cache.truncate_seq(0, 2);
        assert_eq!(cache.len(0), 2);
        assert_eq!(cache.total_tokens(), 2);
        assert_eq!(cache.blocks(0, 0, 0).len(), 2);
        let (k, _) = cache.blocks(0, 0, 0).position(1);
        assert_eq!(k[0], 1.0);
        // The freed tail is re-appendable: budget 8 absorbs 6 more rows.
        for _ in 0..6 {
            for layer in 0..cfg.layers {
                cache
                    .append(layer, 0, &row(&cfg, 9.0), &row(&cfg, 9.0))
                    .unwrap();
            }
        }
        assert_eq!(cache.len(0), 8);
        // Truncating to the current length is a no-op.
        cache.truncate_seq(0, 8);
        assert_eq!(cache.len(0), 8);
    }

    #[test]
    #[should_panic(expected = "truncate_seq")]
    fn truncate_seq_past_length_panics() {
        let (_ctx, mut cache, _cfg) = setup(1, 8);
        cache.truncate_seq(0, 1);
    }

    #[test]
    fn a_cost_only_cache_counts_tokens_and_hands_out_empty_histories() {
        let mut ctx = NpuContext::new(DeviceProfile::v75(), ExecMode::CostOnly);
        let cfg = ModelConfig::for_id(ModelId::Tiny);
        let mut cache = KvCache::new(&mut ctx, &cfg, 2, 8).unwrap();
        for layer in 0..cfg.layers {
            cache.append(layer, 0, &[], &[]).unwrap();
        }
        cache.broadcast_prompt();
        assert_eq!((cache.len(0), cache.len(1)), (1, 1));
        assert!(cache.blocks(1, 1, 0).is_empty());
    }

    #[test]
    fn ddr_footprint_matches_config() {
        let mut ctx = NpuContext::new(DeviceProfile::v75(), ExecMode::CostOnly);
        let cfg = ModelConfig::for_id(ModelId::Qwen1_5B);
        let before = ctx.ddr_mapped_bytes();
        let _cache = KvCache::new(&mut ctx, &cfg, 16, 4096).unwrap();
        let delta = ctx.ddr_mapped_bytes() - before;
        assert_eq!(delta, cfg.kv_cache_bytes(4096));
    }

    #[test]
    fn an_append_leaves_every_other_slot_and_the_snapshot_unchanged() {
        // 40 prompt positions fill one 32-position block and part of the
        // next; every slot admitted over the prompt shares both.
        let (_ctx, mut cache, cfg) = setup(4, 256);
        for pos in 0..40 {
            for layer in 0..cfg.layers {
                let (k, v) = (row(&cfg, pos as f32), row(&cfg, -(pos as f32)));
                cache.append(layer, 0, &k, &v).unwrap();
            }
        }
        let snap = cache.snapshot_seq(0);
        cache.reset_seq(0);
        for slot in 0..4 {
            cache.restore_seq(slot, &snap).unwrap();
        }
        let rows_of = |cache: &KvCache, seq: usize| -> Vec<(Vec<f32>, Vec<f32>)> {
            (0..cfg.layers)
                .flat_map(|layer| {
                    let kv = cache.blocks(layer, seq, 0);
                    (0..kv.len()).map(|j| kv.position(j)).collect::<Vec<_>>()
                })
                .collect()
        };
        let prompt = rows_of(&cache, 0);
        for layer in 0..cfg.layers {
            cache
                .append(layer, 2, &row(&cfg, 99.0), &row(&cfg, -99.0))
                .unwrap();
        }
        assert_eq!(cache.len(2), 41);
        for slot in [0, 1, 3] {
            assert_eq!(cache.len(slot), 40);
            assert_eq!(rows_of(&cache, slot), prompt, "slot {slot}");
        }
        let (k, v) = cache.blocks(1, 2, 0).position(40);
        assert_eq!((k[0], v[0]), (99.0, -99.0));
        // The snapshot still restores the prompt alone.
        cache.restore_seq(2, &snap).unwrap();
        assert_eq!(rows_of(&cache, 2), prompt);
    }

    #[test]
    fn head_views_are_head_disjoint() {
        let mut ctx = NpuContext::new(DeviceProfile::v75(), ExecMode::Functional);
        let mut cfg = ModelConfig::for_id(ModelId::Tiny);
        cfg.kv_heads = 2;
        cfg.heads = 4;
        let mut cache = KvCache::new(&mut ctx, &cfg, 1, 8).unwrap();
        let mut k_row = vec![F16::ZERO; cfg.kv_dim()];
        for (i, x) in k_row.iter_mut().enumerate() {
            *x = F16::from_f32(i as f32);
        }
        cache.append(0, 0, &k_row, &k_row).unwrap();
        let (k0, _) = cache.blocks(0, 0, 0).position(0);
        let (k1, _) = cache.blocks(0, 0, 1).position(0);
        assert_eq!(k0[0], 0.0);
        assert_eq!(k1[0], cfg.head_dim as f32);
    }
}
