//! Quickstart: load a model on the simulated NPU and generate text.
//!
//! Builds the tiny functional model (bit-exact simulation of every kernel),
//! prefills a prompt, decodes a batch of four continuations in parallel —
//! exactly how test-time scaling uses the NPU's idle matrix capacity — and
//! prints what each stage cost on the simulated Snapdragon 8 Gen 3.
//!
//! Run with: `cargo run --release --example quickstart`

use npuscale_repro::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use ttscale::llm_policy::LlmSampler;

fn main() {
    // A simulated OnePlus 12 (Snapdragon 8 Gen 3, Hexagon V75).
    let device = DeviceProfile::v75();
    println!("device: {} ({})", device.name, device.soc);

    let mut ctx = NpuContext::new(device, ExecMode::Functional);
    let model = Model::new(&mut ctx, ModelId::Tiny, DequantVariant::CoalescedLut, 42)
        .expect("model fits the session VA space");
    println!(
        "model: {} ({} layers, hidden {}, vocab {})",
        model.cfg.name, model.cfg.layers, model.cfg.hidden, model.cfg.vocab
    );

    // Prefill the prompt once, then fan it out to a batch of 4 samples.
    let tok = Tokenizer::new();
    let prompt = "Compute: 12 + 7 * 3\nAnswer: ";
    let prompt_tokens = tok.encode_with_bos(prompt);
    let batch = 4;
    let mut cache = KvCache::new(&mut ctx, &model.cfg, batch, 512).unwrap();
    let prefill = model
        .prefill(&mut ctx, &mut cache, 0, &prompt_tokens)
        .unwrap();
    cache.broadcast_prompt();
    println!(
        "\nprefill: {} tokens in {:.2} ms of simulated device time",
        prompt_tokens.len(),
        prefill.cost.wall_secs() * 1e3
    );

    // Batched decode with temperature sampling (each sequence diverges).
    let sampler = LlmSampler::default();
    let mut rng = StdRng::seed_from_u64(7);
    let mut current: Vec<u32> = (0..batch)
        .map(|_| sampler.sample(&prefill.logits, &mut rng))
        .collect();
    let mut generated: Vec<Vec<u32>> = current.iter().map(|&t| vec![t]).collect();
    let mut decode_secs = 0.0;
    for _ in 0..12 {
        let out = model.decode_step(&mut ctx, &mut cache, &current).unwrap();
        decode_secs += out.cost.wall_secs();
        for s in 0..batch {
            let row = &out.logits[s * model.cfg.vocab..(s + 1) * model.cfg.vocab];
            current[s] = sampler.sample(row, &mut rng);
            generated[s].push(current[s]);
        }
    }

    println!(
        "decode: {} steps x batch {} = {} tokens in {:.2} ms ({:.1} tok/s simulated)",
        12,
        batch,
        12 * batch,
        decode_secs * 1e3,
        (12 * batch) as f64 / decode_secs
    );
    println!("\ncompletions (untrained tiny model -> noise, but every kernel ran):");
    for (s, g) in generated.iter().enumerate() {
        println!("  sample {s}: {:?}", tok.decode(g));
    }

    // The headline effect: the same step at batch 1 vs batch 16 on a
    // paper-scale model (cost-only mode), in the paper's single-session
    // deployment with serial dispatch.
    println!("\nfree-compute effect on Qwen2.5-1.5B (simulated 8G3):");
    let device = DeviceProfile::v75();
    let cfg = ModelConfig::for_id(ModelId::Qwen1_5B);
    for batch in [1usize, 4, 16] {
        let plan = ShardPlan::single_session(&cfg, device.session_va_bytes, batch, 1024).unwrap();
        let deployment = Deployment::new(&device, ModelId::Qwen1_5B, &plan, DispatchMode::Serial);
        let p = deployment.unwrap().decode(batch, 1024).unwrap();
        println!(
            "  batch {batch:>2}: {:>6.1} ms/step -> {:>6.1} tok/s",
            p.step_secs * 1e3,
            p.tokens_per_sec
        );
    }
}
